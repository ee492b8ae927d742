package harness

import (
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
	for v := uint8(0); v <= 3; v++ {
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
	if got := ProcsSweep(2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ProcsSweep(2) = %v", got)
	}
	if got := ProcsSweep(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ProcsSweep(1) = %v", got)
	}
	got := ProcsSweep(40)
	if got[0] != 1 || got[len(got)-1] != 40 || len(got) > 9 {
		t.Fatalf("ProcsSweep(40) = %v", got)
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
	for _, id := range FigureOrder() {
		rep, err := Figures()[id](opt)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
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
}
