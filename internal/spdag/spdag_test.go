package spdag

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/counter"
	"repro/internal/rng"
)

// runInline executes a dag to completion on the calling goroutine
// using a simple FIFO queue as the "scheduler". Deterministic; used by
// the structural tests (the real work-stealing scheduler has its own
// package and integration tests).
func runInline(t *testing.T, d *Dag, root, final *Vertex) {
	t.Helper()
	var queue []*Vertex
	*schedHook(d) = func(v *Vertex) { queue = append(queue, v) }
	done := false
	final.SetBody(func(*Vertex) { done = true })
	if !root.TrySchedule() {
		t.Fatal("root did not schedule")
	}
	g := rng.NewXoshiro(1)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		v.Execute(&ExecContext{G: g})
	}
	if !done {
		t.Fatal("final vertex never executed")
	}
}

// schedHook lets tests swap the schedule callback after construction.
func schedHook(d *Dag) *func(*Vertex) { return &d.schedule }

func algorithms() []counter.Algorithm {
	return []counter.Algorithm{
		counter.Dynamic{Threshold: 1},
		counter.Dynamic{Threshold: 16},
		counter.FetchAdd{},
		counter.FixedSNZI{Depth: 2},
		// The two-phase adaptive counter: exercises the mixed
		// Releaser/shared-state release discipline (its cell phase
		// shares one state like fetchadd, its promoted phase hands out
		// pooled in-counter states), and — at contention threshold 1 —
		// promotion mid-dag under the concurrent tests.
		counter.NewAdaptive(0, 1),
		counter.NewAdaptive(1, 16),
	}
}

func TestMakeAndTrivialRun(t *testing.T) {
	for _, alg := range algorithms() {
		d := New(alg)
		root, final := d.Make()
		if !root.Ready() {
			t.Fatalf("%s: root not ready", alg.Name())
		}
		if final.Ready() {
			t.Fatalf("%s: final ready before root ran", alg.Name())
		}
		ran := false
		root.SetBody(func(*Vertex) { ran = true })
		runInline(t, d, root, final)
		if !ran {
			t.Fatalf("%s: root body did not run", alg.Name())
		}
		if d.VertexCount() != 2 {
			t.Fatalf("%s: vertex count %d, want 2", alg.Name(), d.VertexCount())
		}
	}
}

// TestCountOnSplitsTheCount: vertices created under a context wired
// with CountOn land on the context's word, the rest on the dag's, and
// VertexCount sums both. A context counts for one dag only.
func TestCountOnSplitsTheCount(t *testing.T) {
	d := New(counter.FetchAdd{})
	wired, other := newTestCtx(1), newTestCtx(2)
	d.CountOn(wired)
	root, _ := d.Make() // on the dag word: no context
	root.ctx = wired
	v, _ := root.Spawn() // two on the wired context's word
	v.ctx = other
	v.Spawn() // two on the dag word: other is not wired
	if got := wired.created.Load(); got != 2 {
		t.Fatalf("wired context counted %d vertices, want 2", got)
	}
	if got := d.vertices.Load(); got != 4 {
		t.Fatalf("dag word counted %d vertices, want 4", got)
	}
	if got := d.VertexCount(); got != 6 {
		t.Fatalf("VertexCount = %d, want 6", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CountOn accepted a context that already counts for another dag")
		}
	}()
	New(counter.FetchAdd{}).CountOn(wired)
}

func TestChainOrdering(t *testing.T) {
	d := New(counter.Dynamic{Threshold: 1})
	root, final := d.Make()
	var order []string
	root.SetBody(func(u *Vertex) {
		v, w := u.Chain()
		v.SetBody(func(*Vertex) { order = append(order, "v") })
		w.SetBody(func(*Vertex) { order = append(order, "w") })
		v.TrySchedule()
		if w.TrySchedule() {
			// w waits on v; it must not be schedulable yet.
			panic("w scheduled before v signalled")
		}
	})
	runInline(t, d, root, final)
	if len(order) != 2 || order[0] != "v" || order[1] != "w" {
		t.Fatalf("chain order = %v, want [v w]", order)
	}
}

func TestSpawnBothRun(t *testing.T) {
	for _, alg := range algorithms() {
		d := New(alg)
		root, final := d.Make()
		ran := map[string]bool{}
		root.SetBody(func(u *Vertex) {
			v, w := u.Spawn()
			v.SetBody(func(*Vertex) { ran["v"] = true })
			w.SetBody(func(*Vertex) { ran["w"] = true })
			v.TrySchedule()
			w.TrySchedule()
		})
		runInline(t, d, root, final)
		if !ran["v"] || !ran["w"] {
			t.Fatalf("%s: spawned vertices ran = %v", alg.Name(), ran)
		}
	}
}

func TestFinalRunsLast(t *testing.T) {
	d := New(counter.Dynamic{Threshold: 1})
	root, final := d.Make()
	executed := 0
	finalAt := -1
	count := func(v *Vertex) { executed++ }
	var nest func(u *Vertex, depth int)
	nest = func(u *Vertex, depth int) {
		count(u)
		if depth == 0 {
			return
		}
		v, w := u.Spawn()
		v.SetBody(func(x *Vertex) { nest(x, depth-1) })
		w.SetBody(func(x *Vertex) { nest(x, depth-1) })
		v.TrySchedule()
		w.TrySchedule()
	}
	root.SetBody(func(u *Vertex) { nest(u, 4) })
	var queue []*Vertex
	*schedHook(d) = func(v *Vertex) { queue = append(queue, v) }
	final.SetBody(func(*Vertex) { finalAt = executed })
	root.TrySchedule()
	g := rng.NewXoshiro(2)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		v.Execute(&ExecContext{G: g})
	}
	want := 1<<5 - 1 // binary tree of spawns, depth 4: 31 executing vertices
	if executed != want {
		t.Fatalf("executed %d vertices, want %d", executed, want)
	}
	if finalAt != executed {
		t.Fatalf("final ran after %d executions, want %d (last)", finalAt, executed)
	}
}

func TestUseAfterDeathPanics(t *testing.T) {
	cases := []struct {
		name string
		kill func(v *Vertex)
		use  func(v *Vertex)
	}{
		{"signal-signal", func(v *Vertex) { v.Signal() }, func(v *Vertex) { v.Signal() }},
		{"spawn-signal", func(v *Vertex) { v.Spawn() }, func(v *Vertex) { v.Signal() }},
		{"chain-spawn", func(v *Vertex) { v.Chain() }, func(v *Vertex) { v.Spawn() }},
		{"signal-chain", func(v *Vertex) { v.Signal() }, func(v *Vertex) { v.Chain() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := New(counter.Dynamic{Threshold: 1})
			root, _ := d.Make()
			c.kill(root)
			if !root.Dead() {
				t.Fatal("vertex not dead after terminal op")
			}
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on use after death")
				}
			}()
			c.use(root)
		})
	}
}

func TestTryScheduleOnWaitingVertex(t *testing.T) {
	d := New(counter.Dynamic{Threshold: 1})
	_, final := d.Make()
	if final.TrySchedule() {
		t.Fatal("waiting vertex scheduled")
	}
}

func TestTryScheduleIdempotent(t *testing.T) {
	d := New(counter.Dynamic{Threshold: 1})
	scheduled := 0
	root, _ := d.Make()
	*schedHook(d) = func(*Vertex) { scheduled++ }
	if !root.TrySchedule() {
		t.Fatal("first TrySchedule failed")
	}
	if root.TrySchedule() {
		t.Fatal("second TrySchedule succeeded")
	}
	if scheduled != 1 {
		t.Fatalf("scheduled %d times", scheduled)
	}
}

func TestAccessors(t *testing.T) {
	rec := NewMemRecorder()
	d := New(counter.FetchAdd{}, WithRecorder(rec))
	if d.Algorithm().Name() != "fetchadd" {
		t.Fatal("Algorithm accessor")
	}
	root, final := d.Make()
	if root.Dag() != d || final.Dag() != d {
		t.Fatal("Dag accessor")
	}
	if root.Finish() != final || final.Finish() != nil {
		t.Fatal("Finish accessor")
	}
	if root.Counter() != nil {
		t.Fatal("ready-born root must not allocate a counter")
	}
	if final.Counter() == nil {
		t.Fatal("waiting final vertex must have a counter")
	}
	if !root.Ready() || final.Ready() {
		t.Fatal("readiness accessors wrong")
	}
	if root.ID() == 0 || final.ID() == 0 {
		t.Fatal("IDs not assigned with recorder")
	}
	if root.ID() == final.ID() {
		t.Fatal("duplicate IDs")
	}
}

// buildRandomProgram constructs a random nested program: each vertex
// either signals, chains, or spawns, bounded by a budget.
func buildRandomProgram(g *rng.Xoshiro256ss, budget *int) Body {
	var body Body
	body = func(u *Vertex) {
		if *budget <= 0 {
			return // implicit signal
		}
		switch g.Uint64n(3) {
		case 0:
			return
		case 1:
			*budget--
			v, w := u.Chain()
			v.SetBody(buildRandomProgram(g, budget))
			w.SetBody(buildRandomProgram(g, budget))
			v.TrySchedule()
		default:
			*budget--
			v, w := u.Spawn()
			v.SetBody(buildRandomProgram(g, budget))
			w.SetBody(buildRandomProgram(g, budget))
			v.TrySchedule()
			w.TrySchedule()
		}
	}
	return body
}

func TestRandomProgramsStructure(t *testing.T) {
	for _, alg := range algorithms() {
		for seed := uint64(1); seed <= 12; seed++ {
			rec := NewMemRecorder()
			d := New(alg, WithRecorder(rec))
			root, final := d.Make()
			g := rng.NewXoshiro(seed)
			budget := 100
			root.SetBody(buildRandomProgram(g, &budget))
			runInline(t, d, root, final)
			if err := rec.CheckAll(); err != nil {
				t.Fatalf("%s seed %d: %v", alg.Name(), seed, err)
			}
			vertices, edges := rec.Counts()
			if vertices < 2 || edges < 1 {
				t.Fatalf("%s seed %d: empty recording (%d vertices, %d edges)", alg.Name(), seed, vertices, edges)
			}
		}
	}
}

// TestConcurrentExecution runs random programs with a crude concurrent
// executor (goroutine per ready vertex) to exercise the cross-thread
// schedule path before the real scheduler exists.
func TestConcurrentExecution(t *testing.T) {
	for _, alg := range algorithms() {
		for seed := uint64(1); seed <= 6; seed++ {
			rec := NewMemRecorder()
			var wg sync.WaitGroup
			var d *Dag
			d = New(alg, WithRecorder(rec), WithScheduler(func(v *Vertex) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v.Execute(&ExecContext{G: rng.NewXoshiro(rng.AutoSeed())})
				}()
			}))
			root, final := d.Make()
			doneCh := make(chan struct{})
			final.SetBody(func(*Vertex) { close(doneCh) })
			var mu sync.Mutex
			budget := 200
			var build func() Body
			g := rng.NewXoshiro(seed * 977)
			build = func() Body {
				return func(u *Vertex) {
					mu.Lock()
					if budget <= 0 {
						mu.Unlock()
						return
					}
					budget--
					op := g.Uint64n(3)
					mu.Unlock()
					switch op {
					case 0:
						return
					case 1:
						v, w := u.Chain()
						v.SetBody(build())
						w.SetBody(build())
						v.TrySchedule()
					default:
						v, w := u.Spawn()
						v.SetBody(build())
						w.SetBody(build())
						v.TrySchedule()
						w.TrySchedule()
					}
				}
			}
			root.SetBody(build())
			root.TrySchedule()
			<-doneCh
			wg.Wait()
			if err := rec.CheckAll(); err != nil {
				t.Fatalf("%s seed %d: %v", alg.Name(), seed, err)
			}
		}
	}
}

func TestMemRecorderDetectsNonSP(t *testing.T) {
	// Hand-build a non-series-parallel graph (the "N" graph):
	// s→a, s→b, a→t, b→t, a→b — the crossing edge breaks SP.
	r := NewMemRecorder()
	mk := func(id uint64) *Vertex { return &Vertex{id: id} }
	s, a, b, tt := mk(1), mk(2), mk(3), mk(4)
	for _, v := range []*Vertex{s, a, b, tt} {
		r.OnVertex(v)
	}
	r.OnEdge(s, a)
	r.OnEdge(s, b)
	r.OnEdge(a, tt)
	r.OnEdge(b, tt)
	r.OnEdge(a, b)
	if err := r.CheckSeriesParallel(); err == nil {
		t.Fatal("N-graph accepted as series-parallel")
	}
	if err := r.CheckAcyclic(); err != nil {
		t.Fatalf("N-graph is acyclic: %v", err)
	}
}

func TestMemRecorderDetectsCycle(t *testing.T) {
	r := NewMemRecorder()
	a, b := &Vertex{id: 1}, &Vertex{id: 2}
	r.OnVertex(a)
	r.OnVertex(b)
	r.OnEdge(a, b)
	r.OnEdge(b, a)
	if err := r.CheckAcyclic(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestMemRecorderDetectsDoubleExecution(t *testing.T) {
	r := NewMemRecorder()
	a := &Vertex{id: 1}
	r.OnVertex(a)
	r.OnExecute(a)
	r.OnExecute(a)
	if err := r.CheckExecutedOnce(); err == nil {
		t.Fatal("double execution not detected")
	}
}

func TestSeriesParallelAcceptsBaseCases(t *testing.T) {
	// Single edge.
	r := NewMemRecorder()
	a, b := &Vertex{id: 1}, &Vertex{id: 2}
	r.OnVertex(a)
	r.OnVertex(b)
	r.OnEdge(a, b)
	if err := r.CheckSeriesParallel(); err != nil {
		t.Fatalf("single edge rejected: %v", err)
	}
	// Diamond (parallel composition of two series chains).
	r2 := NewMemRecorder()
	s, x, y, tt := &Vertex{id: 1}, &Vertex{id: 2}, &Vertex{id: 3}, &Vertex{id: 4}
	for _, v := range []*Vertex{s, x, y, tt} {
		r2.OnVertex(v)
	}
	r2.OnEdge(s, x)
	r2.OnEdge(s, y)
	r2.OnEdge(x, tt)
	r2.OnEdge(y, tt)
	if err := r2.CheckSeriesParallel(); err != nil {
		t.Fatalf("diamond rejected: %v", err)
	}
}

// TestFibInline runs the paper's Figure 4 Fibonacci program on the
// inline executor and checks the numeric result.
func TestFibInline(t *testing.T) {
	for _, alg := range algorithms() {
		var fib func(u *Vertex, n int, dest *int)
		fib = func(u *Vertex, n int, dest *int) {
			if n <= 1 {
				*dest = n
				return
			}
			res1, res2 := new(int), new(int)
			v, w := u.Chain()
			v.SetBody(func(v *Vertex) {
				w1, w2 := v.Spawn()
				w1.SetBody(func(x *Vertex) { fib(x, n-1, res1) })
				w2.SetBody(func(x *Vertex) { fib(x, n-2, res2) })
				w1.TrySchedule()
				w2.TrySchedule()
			})
			w.SetBody(func(*Vertex) { *dest = *res1 + *res2 })
			v.TrySchedule()
		}
		d := New(alg)
		root, final := d.Make()
		var result int
		root.SetBody(func(u *Vertex) { fib(u, 15, &result) })
		runInline(t, d, root, final)
		if result != 610 {
			t.Fatalf("%s: fib(15) = %d, want 610", alg.Name(), result)
		}
	}
}

func TestDotOutput(t *testing.T) {
	rec := NewMemRecorder()
	d := New(counter.Dynamic{Threshold: 1}, WithRecorder(rec))
	root, final := d.Make()
	root.SetBody(func(u *Vertex) {
		v, w := u.Spawn()
		v.SetBody(nil)
		w.SetBody(nil)
		v.TrySchedule()
		w.TrySchedule()
	})
	runInline(t, d, root, final)
	dot := rec.Dot("test")
	for _, want := range []string{"digraph \"test\"", "v1", "->", "}"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot output missing %q:\n%s", want, dot)
		}
	}
	// Deterministic output for a fixed graph.
	if rec.Dot("test") != dot {
		t.Fatal("Dot output not deterministic")
	}
}
