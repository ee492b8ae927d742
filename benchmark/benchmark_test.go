package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	// The highest percentile a report may name keeps ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g, %v, want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if got := samplesBeyond(170, 90); got != 17 {
		t.Errorf("samplesBeyond(170, 90) = %d, want 17", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %g, want 2.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "call", Start: 10, End: 30, Parent: 0},
		{Name: "call", Start: 20, End: 50, Parent: 0},  // overlaps the first: counted once
		{Name: "late", Start: 90, End: 120, Parent: 0}, // clipped to its parent
		{Name: "leaf", Start: 12, End: 17, Parent: 1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"op":   100 - (50 - 10) - (100 - 90),
		"call": (20 - 5) + 30,
		"late": 30,
		"leaf": 5,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %q = %d, want %d", name, self[name], w)
		}
	}

	var off *tracer // tracing off: every call is a no-op
	off.end(off.begin("x", -1, 0))
	if off.now() != 0 || off.lay("y", -1, 0, 0, time.Second) != 0 {
		t.Error("a nil tracer reported a time")
	}
}

func TestSeededInputs(t *testing.T) {
	if a, b := zipfOrder(64, 7), zipfOrder(64, 7); !slices.Equal(a, b) {
		t.Error("zipfOrder differs between two calls with one seed")
	}
	order := zipfOrder(64, 7)
	if slices.Equal(order, zipfOrder(64, 8)) {
		t.Error("zipfOrder is the same for seeds 7 and 8")
	}
	sorted := slices.Clone(order)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("zipfOrder is not a permutation of 0..63: %v", order)
		}
	}
	shares := zipfShares(1<<18, 64, 1.1)
	if !slices.IsSortedFunc(shares, func(a, b uint64) int { return int(b) - int(a) }) || shares[63] < 1 {
		t.Errorf("zipfShares is not a descending split with every key served: %v", shares)
	}
	// The split is the same work whatever the seed: only the order moves.
	if a, b := newZipfLadder(1<<12, 64, 1.1, 1), newZipfLadder(1<<12, 64, 1.1, 2); a.asyncs != b.asyncs || a.finishes != b.finishes {
		t.Errorf("zipf ladder shape depends on the seed: %+v vs %+v", a, b)
	}

	slots := asyncSlots(4096, 3)
	if !slices.Equal(slots, asyncSlots(4096, 3)) || slices.Equal(slots, asyncSlots(4096, 4)) {
		t.Error("asyncSlots is not a function of its seed alone")
	}
	n := 0
	for _, async := range slots {
		if async {
			n++
		}
	}
	if n != 1024 {
		t.Errorf("asyncSlots marks %d of 4096 slots async, want 1024", n)
	}
}

func TestClosedFormShapes(t *testing.T) {
	// The frozen sizes, against the counts the issue states.
	if k := newFanin(1 << 18); k.asyncs != 1<<19-2 || k.finishes != 0 || k.vertices() != 1<<20-2 || k.executed() != 1<<19 {
		t.Errorf("fanin 2^18: %d asyncs, %d vertices, %d executed", k.asyncs, k.vertices(), k.executed())
	}
	if k := newIndegree2(1 << 17); k.finishes != 1<<17-1 || k.asyncs != 1<<18-2 {
		t.Errorf("indegree2 2^17: %d finishes, %d asyncs", k.finishes, k.asyncs)
	}

	// Every kernel's closed forms, against what the runtime counts.
	rt := repro.NewRuntime(repro.WithWorkers(2))
	defer rt.Close()
	for name, k := range map[string]*kernel{
		"fanin":     newFanin(1 << 9),
		"fanin-odd": newFanin(777),
		"indegree2": newIndegree2(1 << 8),
		"zipf":      newZipfLadder(1<<11, 64, 1.1, 5),
	} {
		built := k.built
		prev := rt.Stats()
		for op := 0; op < 3; op++ {
			if err := rt.Run(k.root); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			now := settledStats(rt, prev.Executed+uint64(k.executed()))
			if dv, de := now.Vertices-prev.Vertices, int64(now.Executed-prev.Executed); dv != k.vertices() || de != k.executed() {
				t.Errorf("%s op %d: %d vertices, %d executed; closed form says %d, %d", name, op, dv, de, k.vertices(), k.executed())
			}
			prev = now
		}
		if k.built != built {
			t.Errorf("%s: running ops built %d more Task values", name, k.built-built)
		}
	}
}

func TestKernelTablesBuiltOnce(t *testing.T) {
	k := newFanin(1 << 12)
	if k.built != 13 {
		t.Errorf("fanin 2^12 built %d Task values, want one per level and the leaf: 13", k.built)
	}
	if k := newIndegree2(1 << 12); k.built != 25 {
		t.Errorf("indegree2 2^12 built %d Task values, want two per level and the leaf: 25", k.built)
	}
	// An op allocates no closure per spawn: with the fetch-and-add counter
	// (no tree nodes) its allocations stay well under one per async (a
	// handful normally; a quarter of the asyncs under -race, whose
	// sync.Pool drops a share of what the runtime recycles).
	rt := repro.NewRuntime(repro.WithWorkers(2), repro.WithCounter("fetchadd"))
	defer rt.Close()
	run := func() {
		if err := rt.Run(k.root); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := mallocs()
	const ops = 4
	for i := 0; i < ops; i++ {
		run()
	}
	if perOp := float64(mallocs()-before) / ops; perOp > float64(k.asyncs)/2 {
		t.Errorf("%.0f allocations per op for %d asyncs: the kernel allocates per spawn", perOp, k.asyncs)
	}
	if k.built != 13 {
		t.Errorf("consecutive ops rebuilt the table: %d Task values", k.built)
	}
}

// The output check is live: a wrong expected vertex count fails every op.
func TestOutputCheckIsLive(t *testing.T) {
	wrong := batchWorkload{build: func(uint64, bool) *kernel {
		k := newFanin(1 << 8)
		k.asyncs++
		return k
	}}
	e, err := batchEpoch(wrong, 2, "", 1, true, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.attempted == 0 || e.failed != e.attempted || len(e.opMS) != 0 {
		t.Errorf("with a wrong closed form %d of %d ops failed, want all", e.failed, e.attempted)
	}
}

// TestSmoke runs every workload, untraced and traced, at tiny sizes: it
// proves each workload and each layer cell still runs, that outputs
// check out, and that the names printed are the names BENCHMARK.json
// declares.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, workloadNames)
	}
	out := t.TempDir()
	for _, w := range workloadNames {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": decl.EndToEnd, "1": decl.PerLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "9", "--seconds", "0.4", "--trace", trace, "-smoke", "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s (%s) declared, printed as %+v (present %v)", w, trace, m.Name, m.Unit, got, ok)
				}
			}
		}
		if _, err := os.Stat(out + "/trace-" + w + ".json"); err != nil {
			t.Errorf("%s: traced run wrote no spans: %v", w, err)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "-smoke"},
		{"--workload", "fanin_dyn", "-smoke", "--seconds", "0"},
		{"--no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = exit %d with %q on stdout, want a failure and no result", args, code, stdout.String())
		}
	}
}
