package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func TestRunFaninSpec(t *testing.T) {
	m, err := Run(Spec{Bench: "fanin", Algo: "dyn", Procs: 2, N: 4096, Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Seconds.N != 2 || m.Seconds.Mean <= 0 {
		t.Fatalf("timing summary: %+v", m.Seconds)
	}
	if m.OpsPerSecPerCore <= 0 || m.CounterOps == 0 || m.Vertices == 0 {
		t.Fatalf("measurement: %+v", m)
	}
	if m.Spec.Threshold != 50 { // 25·2 default
		t.Fatalf("default threshold = %d, want 50", m.Spec.Threshold)
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
	blk := m.Block().String()
	for _, want := range []string{"bench fanin", "algo dyn", "proc 2", "nb_incounter_nodes", "exectime "} {
		if !strings.Contains(blk, want) {
			t.Fatalf("artifact block missing %q:\n%s", want, blk)
		}
	}
}

func TestRunAllBenches(t *testing.T) {
	for _, bench := range []string{"fanin", "indegree2", "fanin-work", "fanin-numa", "phase-shift"} {
		m, err := Run(Spec{Bench: bench, Algo: "fetchadd", Procs: 1, N: 1024, WorkNs: 5, Runs: 1})
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if m.OpsPerSecPerCore <= 0 {
			t.Fatalf("%s: no throughput", bench)
		}
	}
}

// TestRunTopologySpec: Spec.Nodes runs the real scheduler under a
// synthetic topology, the steal split always accounts for every steal,
// and the artifact block carries the nb_local_steals/nb_remote_steals
// fields plus the topology input.
func TestRunTopologySpec(t *testing.T) {
	m, err := Run(Spec{Bench: "fanin-numa", Algo: "dyn", Procs: 2, Nodes: 2, N: 4096, Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.OpsPerSecPerCore <= 0 {
		t.Fatal("no throughput")
	}
	if m.Steals != m.LocalSteals+m.RemoteSteals {
		t.Fatalf("steal split does not add up: %+v", m)
	}
	blk := m.Block().String()
	for _, want := range []string{"bench fanin-numa", "\nnodes 2", "nb_local_steals", "nb_remote_steals"} {
		if !strings.Contains(blk, want) {
			t.Fatalf("artifact block missing %q:\n%s", want, blk)
		}
	}
	// Flat cells omit the topology input but still carry the split.
	m, err = Run(Spec{Bench: "fanin", Algo: "fetchadd", Procs: 1, N: 256, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	blk = m.Block().String()
	if strings.Contains(blk, "\nnodes ") {
		t.Fatalf("flat artifact block carries a nodes input:\n%s", blk)
	}
	if !strings.Contains(blk, "nb_local_steals") {
		t.Fatalf("flat artifact block missing the steal split:\n%s", blk)
	}
	if m.RemoteSteals != 0 {
		t.Fatalf("remote steals on a flat topology: %+v", m)
	}
}

// TestCaveatFollowsHostParallelism: the artifact caveat field mirrors
// GOMAXPROCS at measurement time — present on a 1-thread host, absent
// otherwise (the EXPERIMENTS.md prose caveat, machine-readable).
func TestCaveatFollowsHostParallelism(t *testing.T) {
	run := func() Measurement {
		t.Helper()
		m, err := Run(Spec{Bench: "fanin", Algo: "fetchadd", Procs: 2, N: 256, Runs: 1})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	m := run()
	if m.Caveat == "" || !strings.Contains(m.Block().String(), "caveat measured on 1 hardware thread") {
		t.Fatalf("1-thread measurement lost its caveat: %q\n%s", m.Caveat, m.Block().String())
	}
	runtime.GOMAXPROCS(4)
	if m = run(); m.Caveat != "" {
		t.Fatalf("multi-thread measurement carries a caveat: %q", m.Caveat)
	}
	// The stress path (no dag runtime) carries the same caveat wiring.
	runtime.GOMAXPROCS(1)
	m, err := Run(Spec{Bench: "snzi-stress", Algo: "fetchadd", Procs: 1, N: 256, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Caveat == "" {
		t.Fatal("snzi-stress measurement on 1 thread lost its caveat")
	}
}

// TestRunAdaptiveSpec: the adaptive spec strings flow through the
// measurement path, and the artifact block carries the promotion
// count for adaptive specs only.
func TestRunAdaptiveSpec(t *testing.T) {
	m, err := Run(Spec{Bench: "phase-shift", Algo: "adaptive:1", Procs: 2, N: 2048, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.OpsPerSecPerCore <= 0 {
		t.Fatal("no throughput")
	}
	if !strings.Contains(m.Block().String(), "nb_promotions") {
		t.Fatal("adaptive artifact block missing nb_promotions")
	}
	m, err = Run(Spec{Bench: "fanin", Algo: "dyn", Procs: 1, N: 256, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(m.Block().String(), "nb_promotions") {
		t.Fatal("static algorithm artifact block reports promotions")
	}
}

func TestRunStress(t *testing.T) {
	for _, algo := range []string{"fetchadd", "snzi-2"} {
		m, err := Run(Spec{Bench: "snzi-stress", Algo: algo, Procs: 2, N: 4096, Runs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if m.OpsPerSecPerCore <= 0 {
			t.Fatalf("%s: no throughput", algo)
		}
	}
	if _, err := Run(Spec{Bench: "snzi-stress", Algo: "dyn", Procs: 1, N: 64, Runs: 1}); err == nil {
		t.Fatal("snzi-stress with dyn must error")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Spec{Bench: "bogus", Algo: "dyn", Procs: 1, N: 16, Runs: 1}); err == nil {
		t.Fatal("unknown bench accepted")
	}
	if _, err := Run(Spec{Bench: "fanin", Algo: "bogus", Procs: 1, N: 16, Runs: 1}); err == nil {
		t.Fatal("unknown algo accepted")
	}
	if _, err := Run(Spec{Bench: "fanin", Algo: "fetchadd", Variant: 1, Procs: 1, N: 16, Runs: 1}); err == nil {
		t.Fatal("variant on fetchadd accepted")
	}
}

func TestRunVariants(t *testing.T) {
	for _, v := range []uint8{0, 1, 2, 3, 4} { // 4: pruning
		m, err := Run(Spec{Bench: "fanin", Algo: "dyn", Variant: v, Procs: 1, N: 512, Threshold: 1, Runs: 1})
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		if m.OpsPerSecPerCore <= 0 {
			t.Fatalf("variant %d: no throughput", v)
		}
	}
}

func TestProcsSweep(t *testing.T) {
	for hi := 1; hi <= 128; hi++ {
		got := ProcsSweep(hi)
		if got[0] != 1 || got[len(got)-1] != hi || len(got) > 8 {
			t.Fatalf("ProcsSweep(%d) = %v: want 1..%d in at most 8 points", hi, got, hi)
		}
		if hi <= 8 && len(got) != hi {
			t.Fatalf("ProcsSweep(%d) = %v: want every count up to 8", hi, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("ProcsSweep(%d) = %v: not strictly increasing", hi, got)
			}
		}
	}
	if len(ProcsSweep(0)) == 0 {
		t.Fatal("ProcsSweep(0) empty")
	}
}

func TestDistinct(t *testing.T) {
	if got := distinct([]int{2, 1, 2, 0, 4}); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("distinct = %v", got)
	}
}

func TestFigureRegistry(t *testing.T) {
	figs := Figures()
	for _, id := range FigureOrder() {
		if figs[id] == nil {
			t.Fatalf("figure %q missing from registry", id)
		}
	}
	if len(figs) != len(FigureOrder()) {
		t.Fatal("registry and order out of sync")
	}
}

// TestAllFiguresQuick executes every figure driver end to end in quick
// mode on a tiny problem size, checking tables materialize.
func TestAllFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure drivers take seconds")
	}
	var progress []string
	opt := Options{Quick: true, N: 1 << 11, MaxProcs: 2, Runs: 1,
		Progress: func(s string) { progress = append(progress, s) }}
	var shapes strings.Builder
	for _, id := range FigureOrder() {
		rep, err := Figures()[id](opt)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		shapes.WriteString(figureShape(rep, pinnedFigures[id]))
		if len(rep.Tables) == 0 {
			t.Fatalf("figure %s: no tables", id)
		}
		for _, tbl := range rep.Tables {
			if tbl.NumRows() == 0 {
				t.Fatalf("figure %s: empty table", id)
			}
		}
		out := rep.Render()
		if !strings.Contains(out, rep.Figure) {
			t.Fatalf("figure %s: render missing header", id)
		}
		if id != "stalls" && id != "ablations" {
			if len(rep.Artifact().Blocks) == 0 {
				t.Fatalf("figure %s: no artifact blocks", id)
			}
		}
	}
	if len(progress) == 0 {
		t.Fatal("no progress callbacks")
	}
	checkGolden(t, "testdata/figures.golden", []byte(shapes.String()))
}

var digits = regexp.MustCompile(`[0-9]+`)

// pinnedFigures are the figures whose numbers are a pure function of
// their seed (identical at GOMAXPROCS 1 and 2): the stall model and the
// scheduler replay. Their tables are recorded whole, values unmasked,
// so a change that moves a model number fails TestAllFiguresQuick.
var pinnedFigures = map[string]bool{"stalls": true, "sim": true}

// figureShape renders what a figure report is made of rather than what
// it measured: the figure and its title; each table's title, header and
// first-column labels with digit runs masked; and each artifact block's
// ordered keys, minus caveat (it follows the host's parallelism). Runs
// of blocks with the same keys collapse into one counted line. A pinned
// figure keeps its digits and records every table row in full.
func figureShape(rep *Report, pinned bool) string {
	var b strings.Builder
	mask := func(s string) string {
		if pinned {
			return s
		}
		return digits.ReplaceAllString(s, "#")
	}
	fmt.Fprintf(&b, "== %s: %s\n", rep.Figure, rep.Title)
	for _, tbl := range rep.Tables {
		fmt.Fprintf(&b, "table: %s\n  header: %s\n", mask(tbl.Title), mask(strings.Join(tbl.Columns, " | ")))
		// Rows are unexported; read the first column back from the
		// rendered table, whose separator line gives the column width.
		lines := strings.Split(strings.TrimRight(tbl.Render(), "\n"), "\n")
		if tbl.Title != "" {
			lines = lines[1:]
		}
		width := len(strings.Fields(lines[1])[0])
		var rows []string
		for _, line := range lines[2:] {
			if !pinned {
				line = line[:min(width, len(line))]
			}
			rows = append(rows, mask(strings.TrimRight(line, " ")))
		}
		if pinned {
			fmt.Fprintf(&b, "  rows:\n    %s\n", strings.Join(rows, "\n    "))
		} else {
			fmt.Fprintf(&b, "  rows: %s\n", strings.Join(rows, ", "))
		}
	}
	var prev string
	count := 0
	flush := func() {
		if count > 0 {
			fmt.Fprintf(&b, "  %d× %s\n", count, prev)
		}
	}
	b.WriteString("blocks:\n")
	for _, blk := range rep.Artifact().Blocks {
		var keys []string
		for _, kv := range blk.Inputs {
			keys = append(keys, kv.Key)
		}
		keys = append(keys, "---")
		for _, kv := range blk.Outputs {
			if kv.Key != "caveat" {
				keys = append(keys, kv.Key)
			}
		}
		line := strings.Join(keys, " ")
		if line != prev {
			flush()
			prev, count = line, 0
		}
		count++
	}
	flush()
	return b.String()
}

// checkGolden compares got against the committed golden file;
// UPDATE_GOLDEN=1 rewrites the file instead.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed (UPDATE_GOLDEN=1 regenerates; commit the diff deliberately)\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
