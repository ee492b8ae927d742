package sim_test

// Cross-validation: the simulator against the real scheduler on small
// configurations — the test that proves the sim models the thing it
// claims to. The tolerance contract, per quantity:
//
//   - Executed totals: EXACT. Vertex counts are scheduling-independent
//     (a depth-D spawn tree is 2^(D+1) vertices no matter who runs
//     them), so any divergence is a workload-model bug.
//   - Spawn/retire counts on a fixed pool: EXACT (both zero — a fixed
//     pool never runs the elastic machinery).
//   - Steal decomposition: EXACT (Steals == LocalSteals + RemoteSteals
//     on both sides; all steals local under a flat topology).
//   - Steals at one worker: EXACT (zero — there is nobody to steal
//     from).
//   - Steal totals at ≥ 2 workers: QUALITATIVE (both non-zero on a
//     large tree). The real counts are timing-shaped — they depend on
//     how the host interleaves worker goroutines — so no simulator
//     that doesn't model instruction timing can pin them; the sim's
//     counts are the scheduling-shaped analogue.

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/counter"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spdag"
)

// spawnTree mirrors the sched test workload: a binary tree of the
// given depth, 2^(depth+1) executed vertices per run including the
// final.
func spawnTree(u *spdag.Vertex, depth int) {
	if depth == 0 {
		return
	}
	v, w := u.Spawn()
	v.SetBody(func(x *spdag.Vertex) { spawnTree(x, depth-1) })
	w.SetBody(func(x *spdag.Vertex) { spawnTree(x, depth-1) })
	v.TrySchedule()
	w.TrySchedule()
}

// realStats runs `runs` sequential depth-`depth` trees on a fresh
// fixed pool of p workers and returns the scheduler's stats.
func realStats(t *testing.T, p, depth, runs int, seed uint64) sched.Stats {
	t.Helper()
	s := sched.New(p, sched.WithSeed(seed))
	s.Start()
	defer s.Shutdown()
	d := spdag.New(counter.Dynamic{Threshold: 1}, spdag.WithScheduler(s.Submit))
	for i := 0; i < runs; i++ {
		s.Run(d, func(u *spdag.Vertex) { spawnTree(u, depth) })
	}
	if got := s.SpawnedWorkers() + s.RetiredWorkers(); got != 0 {
		t.Fatalf("fixed pool moved: spawned+retired = %d", got)
	}
	return s.Stats()
}

// simStats replays the same workload in the simulator: one arrival per
// run, spaced far enough apart that each computation drains before the
// next arrives (sequential, like the real s.Run loop).
func simStats(t *testing.T, p, depth, runs int, seed uint64) sim.Result {
	t.Helper()
	var arr []sim.Arrival
	gap := 8 << depth // ≥ 4× the serial tick count of one tree
	for i := 0; i < runs; i++ {
		arr = append(arr, sim.Arrival{Tick: i * gap, Depth: depth})
	}
	r, err := sim.Run(sim.Config{Workers: p, Seed: seed, Arrivals: arr})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if r.Truncated {
		t.Fatal("sim truncated")
	}
	return r
}

func TestCrossValidationExecuted(t *testing.T) {
	const depth, runs = 8, 3
	want := uint64(runs) * (2 << depth)
	for _, p := range []int{1, 2, 3, 4} {
		st := realStats(t, p, depth, runs, 42)
		r := simStats(t, p, depth, runs, 42)
		if st.Executed != want {
			t.Errorf("p=%d: real executed %d, want %d", p, st.Executed, want)
		}
		if r.Executed != want {
			t.Errorf("p=%d: sim executed %d, want %d", p, r.Executed, want)
		}
		if r.Spawned != 0 || r.Retired != 0 {
			t.Errorf("p=%d: sim fixed pool moved: spawned=%d retired=%d", p, r.Spawned, r.Retired)
		}
		if st.Steals != st.LocalSteals+st.RemoteSteals {
			t.Errorf("p=%d: real steal decomposition broken: %d != %d+%d",
				p, st.Steals, st.LocalSteals, st.RemoteSteals)
		}
		if r.Steals != r.LocalSteals+r.RemoteSteals {
			t.Errorf("p=%d: sim steal decomposition broken: %d != %d+%d",
				p, r.Steals, r.LocalSteals, r.RemoteSteals)
		}
		if r.RemoteSteals != 0 || st.RemoteSteals != 0 {
			t.Errorf("p=%d: remote steals on a flat topology (sim %d, real %d)",
				p, r.RemoteSteals, st.RemoteSteals)
		}
		if p == 1 && (r.Steals != 0 || st.Steals != 0) {
			t.Errorf("p=1: steals with no victim (sim %d, real %d)", r.Steals, st.Steals)
		}
	}
}

func TestCrossValidationStealsQualitative(t *testing.T) {
	// Real steals need real interleaving: on a single-P host a busy
	// worker holds the sole P until its deque drains, so thieves
	// legitimately never observe a non-empty victim.
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	const depth = 12
	r := simStats(t, 4, depth, 1, 3)
	if r.Steals == 0 {
		t.Error("sim: no steals on a 4-worker run of a large tree")
	}
	// Even at GOMAXPROCS ≥ 4, a single hardware thread timeslices the
	// worker goroutines — one run can drain entirely between thief
	// wakeups. The qualitative claim is "a large tree steals
	// eventually", so retry fresh pools (new seeds) a bounded number
	// of times before calling it a failure.
	for attempt := 0; attempt < 32; attempt++ {
		if st := realStats(t, 4, depth, 1, uint64(3+attempt)); st.Steals > 0 {
			return
		}
	}
	t.Error("real scheduler: no steals across 32 fresh 4-worker runs of a large tree")
}

// TestCrossValidationLeafCount double-checks the workload model itself:
// the real tree produces 2^depth leaves, the sim's executed total
// implies the same.
func TestCrossValidationLeafCount(t *testing.T) {
	const depth = 6
	s := sched.New(2, sched.WithSeed(9))
	s.Start()
	defer s.Shutdown()
	d := spdag.New(counter.Dynamic{Threshold: 1}, spdag.WithScheduler(s.Submit))
	var leaves atomic.Int64
	var countingTree func(u *spdag.Vertex, depth int)
	countingTree = func(u *spdag.Vertex, depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		v, w := u.Spawn()
		v.SetBody(func(x *spdag.Vertex) { countingTree(x, depth-1) })
		w.SetBody(func(x *spdag.Vertex) { countingTree(x, depth-1) })
		v.TrySchedule()
		w.TrySchedule()
	}
	s.Run(d, func(u *spdag.Vertex) { countingTree(u, depth) })
	if leaves.Load() != 1<<depth {
		t.Fatalf("real leaves %d, want %d", leaves.Load(), 1<<depth)
	}
	r := simStats(t, 2, depth, 1, 9)
	if r.Executed != 2<<depth {
		t.Fatalf("sim executed %d, want %d", r.Executed, 2<<depth)
	}
}
