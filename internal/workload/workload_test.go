package workload

import (
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/nested"
)

func newRT(t *testing.T, workers int, alg counter.Algorithm) *nested.Runtime {
	t.Helper()
	rt := nested.New(nested.Config{Workers: workers, Algorithm: alg, Seed: 3})
	t.Cleanup(rt.Close)
	return rt
}

func TestFaninCounts(t *testing.T) {
	rt := newRT(t, 2, counter.Dynamic{Threshold: 1})
	res := Fanin(rt, 1024)
	if res.Name != "fanin" || res.N != 1024 {
		t.Fatalf("result header: %+v", res)
	}
	// 2(n−1) asyncs + 2n−1 signals… counter ops = 2·asyncs + 1.
	wantOps := uint64(2*2*(1024-1) + 1)
	if res.CounterOps != wantOps {
		t.Fatalf("counter ops = %d, want %d", res.CounterOps, wantOps)
	}
	// Vertices: root+final plus 2 per async.
	if res.Vertices != int64(2+2*2*(1024-1)) {
		t.Fatalf("vertices = %d", res.Vertices)
	}
	if res.Elapsed <= 0 || res.OpsPerSec() <= 0 || res.OpsPerSecPerCore() <= 0 {
		t.Fatalf("degenerate timing: %+v", res)
	}
	if res.OpsPerSecPerCore() != res.OpsPerSec()/2 {
		t.Fatal("per-core division wrong")
	}
	// With p = 1 growth, the top-level finish tree must have grown.
	if res.FinalNodes < 100 {
		t.Fatalf("final counter nodes = %d, want hundreds with threshold 1", res.FinalNodes)
	}
	if res.String() == "" {
		t.Fatal("empty String")
	}
}

func TestFaninAllAlgorithms(t *testing.T) {
	for _, alg := range []counter.Algorithm{
		counter.FetchAdd{}, counter.Dynamic{Threshold: 50}, counter.FixedSNZI{Depth: 4},
	} {
		rt := newRT(t, 2, alg)
		res := Fanin(rt, 512)
		if res.Vertices != int64(2+2*2*(512-1)) {
			t.Fatalf("%s: vertices = %d", alg.Name(), res.Vertices)
		}
	}
}

// TestPhaseShiftAllAlgorithms: the phase-shift kernel completes and
// accounts its vertices under every algorithm family, adaptive
// included (the kernel exists to drive its migration).
func TestPhaseShiftAllAlgorithms(t *testing.T) {
	for _, alg := range []counter.Algorithm{
		counter.FetchAdd{}, counter.Dynamic{Threshold: 50}, counter.NewAdaptive(1, 50),
	} {
		rt := newRT(t, 2, alg)
		const n = 512
		res := PhaseShift(rt, n)
		// Prologue: 2 vertices per async (task + continuation). Storm:
		// the fanin shape. Plus the run's root/final pair.
		want := int64(2 + 2*(n/4) + 2*2*(n-1))
		if res.Vertices != want {
			t.Fatalf("%s: vertices = %d, want %d", alg.Name(), res.Vertices, want)
		}
		if res.CounterOps != 2*(n/4)+faninOps(n) {
			t.Fatalf("%s: counter ops = %d", alg.Name(), res.CounterOps)
		}
		if res.OpsPerSecPerCore() <= 0 {
			t.Fatalf("%s: no throughput reported", alg.Name())
		}
	}
}

// TestBurstCounts: the bursty kernel accounts its work — every lane of
// every storm runs a full fanin — on both a fixed and an elastic pool.
func TestBurstCounts(t *testing.T) {
	for _, maxWorkers := range []int{0, 4} { // 0 = fixed pool
		rt := nested.New(nested.Config{
			Workers: 1, MaxWorkers: maxWorkers, Seed: 3,
			RetireAfter: time.Millisecond,
		})
		t.Cleanup(rt.Close)
		cfg := BurstConfig{Leaves: 256, Storms: 3, Lanes: 4, Gap: 2 * time.Millisecond}
		res := Burst(rt, cfg)
		if res.Name != "burst" || res.N != 3*4*256 {
			t.Fatalf("max=%d: result header %+v", maxWorkers, res)
		}
		lanes := uint64(cfg.Storms * cfg.Lanes)
		if want := lanes * faninOps(cfg.Leaves); res.CounterOps != want {
			t.Fatalf("max=%d: counter ops = %d, want %d", maxWorkers, res.CounterOps, want)
		}
		// Each lane: root+final plus 2 vertices per async (shadow
		// live-count against lost or leaked vertices).
		if want := int64(lanes) * int64(2+2*2*(cfg.Leaves-1)); res.Vertices != want {
			t.Fatalf("max=%d: vertices = %d, want %d", maxWorkers, res.Vertices, want)
		}
		if res.Elapsed <= 0 || res.OpsPerSec() <= 0 {
			t.Fatalf("max=%d: degenerate timing %+v", maxWorkers, res)
		}
		if res.Workers < 1 || (maxWorkers > 0 && res.Workers > maxWorkers) {
			t.Fatalf("max=%d: peak workers = %d out of range", maxWorkers, res.Workers)
		}
	}
}

func TestFaninSmallN(t *testing.T) {
	rt := newRT(t, 1, nil)
	res := Fanin(rt, 1)
	if res.CounterOps != 1 || res.Vertices != 2 {
		t.Fatalf("n=1: %+v", res)
	}
}

func TestIndegree2Counts(t *testing.T) {
	rt := newRT(t, 2, counter.Dynamic{Threshold: 8})
	res := Indegree2(rt, 256)
	if res.Name != "indegree2" {
		t.Fatal("name")
	}
	// Each internal node adds: 1 chain (2 vertices) + 2 asyncs (4
	// vertices); internal nodes = n−1; plus root+final.
	if res.Vertices != int64(2+6*(256-1)) {
		t.Fatalf("vertices = %d, want %d", res.Vertices, 2+6*(256-1))
	}
	// Indegree2's top-level finish sees only the root chain: its own
	// counter stays tiny.
	if res.FinalNodes > 3 {
		t.Fatalf("top-level finish grew to %d nodes", res.FinalNodes)
	}
}

func TestFibWorkload(t *testing.T) {
	rt := newRT(t, 2, nil)
	res, val := Fib(rt, 20)
	if val != 6765 {
		t.Fatalf("fib(20) = %d", val)
	}
	if res.Vertices < 100 || res.CounterOps != uint64(res.Vertices) {
		t.Fatalf("fib accounting: %+v", res)
	}
}

func TestCalibration(t *testing.T) {
	rate := CalibrateWork()
	if rate <= 0 {
		t.Fatalf("calibration rate %f", rate)
	}
	if CalibrateWork() != rate {
		t.Fatal("calibration not cached")
	}
	// 1ms of work should take between 0.05ms and 100ms of wall time —
	// very loose bounds (package tests run in parallel on few cores);
	// the point is the right order of magnitude. Take the best of a few
	// attempts to shed scheduling noise.
	best := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		Work(1_000_000)
		if el := time.Since(start); el < best {
			best = el
		}
	}
	if best < 50*time.Microsecond || best > 100*time.Millisecond {
		t.Fatalf("Work(1ms) took %v", best)
	}
	Work(0)  // must not spin
	Work(-1) // must not spin
}

func TestFaninWorkRuns(t *testing.T) {
	rt := newRT(t, 2, nil)
	res := FaninWork(rt, 64, 100)
	if res.Name != "fanin-work100" {
		t.Fatalf("name = %s", res.Name)
	}
	if res.CounterOps != faninOps(64) {
		t.Fatal("ops")
	}
}

func TestSnziStressFetchAdd(t *testing.T) {
	res := SnziStress(4, -1, 5000)
	if res.Name != "snzi-stress-fetchadd" {
		t.Fatal("name")
	}
	if res.CounterOps != 4*5000*2 {
		t.Fatalf("ops = %d", res.CounterOps)
	}
	if res.OpsPerSecPerCore() <= 0 {
		t.Fatal("throughput")
	}
}

func TestSnziStressTree(t *testing.T) {
	for _, depth := range []int{0, 2, 5} {
		res := SnziStress(4, depth, 5000)
		if res.CounterOps != 4*5000*2 {
			t.Fatalf("depth %d: ops = %d", depth, res.CounterOps)
		}
	}
}

func TestRecCount(t *testing.T) {
	// fanin_rec(n) performs 2 asyncs per level: recCount(2^k) = 2(2^k − 1).
	cases := map[uint64]uint64{1: 0, 2: 2, 4: 6, 8: 14, 1024: 2046}
	for n, want := range cases {
		if got := recCount(n); got != want {
			t.Errorf("recCount(%d) = %d, want %d", n, got, want)
		}
	}
	if faninOps(1) != 1 || faninOps(8) != 29 {
		t.Errorf("faninOps wrong: %d %d", faninOps(1), faninOps(8))
	}
}

func TestIndegree2AllAlgorithms(t *testing.T) {
	for _, alg := range []counter.Algorithm{
		counter.FetchAdd{}, counter.FixedSNZI{Depth: 3}, counter.Dynamic{Threshold: 4},
	} {
		rt := newRT(t, 2, alg)
		res := Indegree2(rt, 128)
		if res.Vertices != int64(2+6*(128-1)) {
			t.Fatalf("%s: vertices = %d", alg.Name(), res.Vertices)
		}
	}
}

func TestResultZeroDivisionGuards(t *testing.T) {
	var r Result
	if r.OpsPerSec() != 0 || r.OpsPerSecPerCore() != 0 {
		t.Fatal("zero result must not divide by zero")
	}
	r.CounterOps = 10
	r.Elapsed = time.Second
	if r.OpsPerSecPerCore() != 0 { // workers still 0
		t.Fatal("zero workers must not divide by zero")
	}
}

func TestFibSingleWorkerDeterministic(t *testing.T) {
	rt := newRT(t, 1, counter.Dynamic{Threshold: 1})
	res, val := Fib(rt, 12)
	if val != 144 {
		t.Fatalf("fib(12) = %d", val)
	}
	if res.N != 12 || res.Name != "fib(12)" {
		t.Fatalf("result header: %+v", res)
	}
}
