package sched

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/counter"
	"repro/internal/spdag"
)

func algorithms() []counter.Algorithm {
	return []counter.Algorithm{
		counter.Dynamic{Threshold: 1},
		counter.Dynamic{Threshold: 64},
		counter.FetchAdd{},
		counter.FixedSNZI{Depth: 3},
	}
}

func TestRunTrivial(t *testing.T) {
	s := New(2, WithSeed(1))
	s.Start()
	defer s.Shutdown()
	d := spdag.New(counter.Dynamic{Threshold: 1}, spdag.WithScheduler(s.Submit))
	ran := false
	s.Run(d, func(*spdag.Vertex) { ran = true })
	if !ran {
		t.Fatal("root body did not run")
	}
	if st := s.Stats(); st.Executed < 2 {
		t.Fatalf("executed %d vertices, want ≥ 2", st.Executed)
	}
}

func TestNumWorkersDefault(t *testing.T) {
	if New(0).NumWorkers() <= 0 {
		t.Fatal("default worker count not positive")
	}
	if New(3).NumWorkers() != 3 {
		t.Fatal("explicit worker count ignored")
	}
	if New(1).String() == "" {
		t.Fatal("empty String()")
	}
}

func TestStartTwicePanics(t *testing.T) {
	s := New(1)
	s.Start()
	defer s.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	s.Start()
}

// spawnTree recursively spawns a binary tree of depth levels and
// counts leaf executions.
func spawnTree(u *spdag.Vertex, depth int, leaves *atomic.Int64) {
	if depth == 0 {
		leaves.Add(1)
		return
	}
	v, w := u.Spawn()
	v.SetBody(func(x *spdag.Vertex) { spawnTree(x, depth-1, leaves) })
	w.SetBody(func(x *spdag.Vertex) { spawnTree(x, depth-1, leaves) })
	v.TrySchedule()
	w.TrySchedule()
}

func TestParallelSpawnTreeAllAlgorithms(t *testing.T) {
	for _, alg := range algorithms() {
		for _, p := range []int{1, 2, 4} {
			s := New(p, WithSeed(7))
			s.Start()
			d := spdag.New(alg, spdag.WithScheduler(s.Submit))
			var leaves atomic.Int64
			const depth = 12
			s.Run(d, func(u *spdag.Vertex) { spawnTree(u, depth, &leaves) })
			s.Shutdown()
			if leaves.Load() != 1<<depth {
				t.Fatalf("%s p=%d: %d leaves, want %d", alg.Name(), p, leaves.Load(), 1<<depth)
			}
		}
	}
}

// requireParallelism makes sure worker goroutines can actually
// interleave: on a single-P host a busy worker holds the sole P until
// its deque drains, so thieves never observe a non-empty victim and
// steal counts are legitimately zero. Bumping GOMAXPROCS restores the
// multicore scheduling environment the steal assertions describe.
func requireParallelism(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= 2 {
		return
	}
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// Tests that once ran once per stealing protocol run their body as a
// "chase-lev" subtest: Chase–Lev is the scheduler's one protocol, and
// the subtest keeps the name its results are tracked under.

func TestStealsHappen(t *testing.T) {
	requireParallelism(t)
	s := New(4, WithSeed(3))
	s.Start()
	defer s.Shutdown()
	d := spdag.New(counter.Dynamic{Threshold: 1}, spdag.WithScheduler(s.Submit))
	var leaves atomic.Int64
	s.Run(d, func(u *spdag.Vertex) { spawnTree(u, 14, &leaves) })
	if st := s.Stats(); st.Steals == 0 {
		t.Fatal("no steals on a 4-worker run of a large tree")
	}
}

func TestChainUnderScheduler(t *testing.T) {
	s := New(4, WithSeed(11))
	s.Start()
	defer s.Shutdown()
	d := spdag.New(counter.Dynamic{Threshold: 1}, spdag.WithScheduler(s.Submit))
	var order atomic.Int64 // must see 1 then 2
	var bad atomic.Bool
	s.Run(d, func(u *spdag.Vertex) {
		v, w := u.Chain()
		v.SetBody(func(*spdag.Vertex) {
			if !order.CompareAndSwap(0, 1) {
				bad.Store(true)
			}
		})
		w.SetBody(func(*spdag.Vertex) {
			if !order.CompareAndSwap(1, 2) {
				bad.Store(true)
			}
		})
		v.TrySchedule()
	})
	if bad.Load() || order.Load() != 2 {
		t.Fatalf("chain ordering violated (order=%d)", order.Load())
	}
}

// TestFibParallel runs the paper's Figure 4 program on the real
// scheduler for every counter algorithm.
func TestFibParallel(t *testing.T) {
	want := map[int]int{10: 55, 15: 610, 20: 6765}
	for _, alg := range algorithms() {
		s := New(4, WithSeed(5))
		s.Start()
		d := spdag.New(alg, spdag.WithScheduler(s.Submit))
		for n, expect := range want {
			var fib func(u *spdag.Vertex, n int, dest *int64)
			fib = func(u *spdag.Vertex, n int, dest *int64) {
				if n <= 1 {
					*dest = int64(n)
					return
				}
				res1, res2 := new(int64), new(int64)
				v, w := u.Chain()
				v.SetBody(func(v *spdag.Vertex) {
					w1, w2 := v.Spawn()
					w1.SetBody(func(x *spdag.Vertex) { fib(x, n-1, res1) })
					w2.SetBody(func(x *spdag.Vertex) { fib(x, n-2, res2) })
					w1.TrySchedule()
					w2.TrySchedule()
				})
				w.SetBody(func(*spdag.Vertex) { *dest = *res1 + *res2 })
				v.TrySchedule()
			}
			var result int64
			n := n
			s.Run(d, func(u *spdag.Vertex) { fib(u, n, &result) })
			if int(result) != expect {
				t.Fatalf("%s: fib(%d) = %d, want %d", alg.Name(), n, result, expect)
			}
		}
		s.Shutdown()
	}
}

// TestStructuralValidityUnderScheduler runs a spawn tree with a
// recorder attached and validates the full dag afterwards.
func TestStructuralValidityUnderScheduler(t *testing.T) {
	rec := spdag.NewMemRecorder()
	s := New(4, WithSeed(13))
	s.Start()
	d := spdag.New(counter.Dynamic{Threshold: 4}, spdag.WithScheduler(s.Submit), spdag.WithRecorder(rec))
	var leaves atomic.Int64
	s.Run(d, func(u *spdag.Vertex) { spawnTree(u, 8, &leaves) })
	s.Shutdown()
	if err := rec.CheckAll(); err != nil {
		t.Fatal(err)
	}
	vertices, _ := rec.Counts()
	if int64(vertices) != d.VertexCount() {
		t.Fatalf("recorder saw %d vertices, dag counted %d", vertices, d.VertexCount())
	}
}

// TestExecutedExactAtRunReturn: every vertex is counted before its
// body runs, and the final vertex's body is what releases Run, so the
// executed total is exact the moment Run returns — no sleep, no poll.
// A depth-d tree is 2^(d+1) vertices (2^(d+1)−1 tree vertices plus the
// final).
func TestExecutedExactAtRunReturn(t *testing.T) {
	requireParallelism(t)
	s := New(2, WithSeed(19))
	s.Start()
	defer s.Shutdown()
	d := spdag.New(counter.FetchAdd{}, spdag.WithScheduler(s.Submit))
	const depth = 3
	for i := uint64(1); i <= 2000; i++ {
		var leaves atomic.Int64
		s.Run(d, func(u *spdag.Vertex) { spawnTree(u, depth, &leaves) })
		if got, want := s.Stats().Executed, i*(2<<depth); got != want {
			t.Fatalf("run %d: Executed = %d right after Run returned, want %d", i, got, want)
		}
	}
}

// TestManySequentialRuns reuses one scheduler for many computations,
// as the benchmark harness does.
func TestManySequentialRuns(t *testing.T) {
	s := New(2, WithSeed(17))
	s.Start()
	defer s.Shutdown()
	d := spdag.New(counter.Dynamic{Threshold: 8}, spdag.WithScheduler(s.Submit))
	for i := 0; i < 50; i++ {
		var leaves atomic.Int64
		s.Run(d, func(u *spdag.Vertex) { spawnTree(u, 6, &leaves) })
		if leaves.Load() != 64 {
			t.Fatalf("run %d: %d leaves", i, leaves.Load())
		}
	}
}
