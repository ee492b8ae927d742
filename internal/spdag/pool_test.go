package spdag

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/counter"
	"repro/internal/rng"
)

// newTestCtx builds a worker-style execution context for driving
// structural operations by hand.
func newTestCtx(seed uint64) *ExecContext {
	return &ExecContext{G: rng.NewXoshiro(seed)}
}

// TestResetZeroesEveryField populates every field of a vertex, then
// checks that reset leaves none behind. The first loop fails when a
// field is added to Vertex without being populated here.
func TestResetZeroesEveryField(t *testing.T) {
	d := New(counter.FetchAdd{})
	ctr := d.alg.New(1)
	v := &Vertex{dag: d, ctr: ctr, st: ctr.RootState(), body: func(*Vertex) {},
		payload: 1, comp: &Computation{}, ctx: newTestCtx(1), pinned: true, id: 7}
	v.fin = v
	v.dead.Store(true)
	v.scheduled.Store(true)
	v.injNext.Store(v)
	rv := reflect.ValueOf(v).Elem()
	for i := range rv.NumField() {
		if rv.Field(i).IsZero() {
			t.Fatalf("test does not populate Vertex.%s", rv.Type().Field(i).Name)
		}
	}
	v.reset()
	if !rv.IsZero() {
		for i := range rv.NumField() {
			if !rv.Field(i).IsZero() {
				t.Errorf("reset left Vertex.%s set", rv.Type().Field(i).Name)
			}
		}
	}
}

// TestSpawnSignalCycleAllocsDyn asserts the hot-path budget of the
// zero-allocation work: a steady-state spawn-signal cycle against the
// paper's in-counter allocates at most one object per cycle (and with
// all pools warm, zero: vertices, dynamic counter states, and
// decrement pairs all recycle; the grow threshold is set high enough
// that tree growth never triggers inside the measurement).
func TestSpawnSignalCycleAllocsDyn(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behaviour")
	}
	d := New(counter.Dynamic{Threshold: 1 << 40})
	u, _ := d.Make()
	u.ctx = newTestCtx(1)
	allocs := testing.AllocsPerRun(2000, func() {
		v, w := u.Spawn()
		w.Signal()
		w.Recycle()
		u.Recycle()
		u = v
	})
	if allocs > 1 {
		t.Fatalf("dyn spawn-signal cycle allocates %.1f objects, want ≤ 1", allocs)
	}
}

// TestSpawnSignalCycleAllocsFetchAdd is the same budget against the
// fetch-and-add baseline, whose shared state allocates nothing at all.
func TestSpawnSignalCycleAllocsFetchAdd(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behaviour")
	}
	d := New(counter.FetchAdd{})
	u, _ := d.Make()
	u.ctx = newTestCtx(1)
	allocs := testing.AllocsPerRun(2000, func() {
		v, w := u.Spawn()
		w.Signal()
		w.Recycle()
		u.Recycle()
		u = v
	})
	if allocs > 1 {
		t.Fatalf("fetchadd spawn-signal cycle allocates %.1f objects, want ≤ 1", allocs)
	}
}

// TestChainSignalCycleAllocs covers the serial-composition path: the
// caller dies, its obligations move to w, and the cycle's only
// allocation is the fresh finish counter (one per chain, by design —
// the paper's cost model charges counter allocation to finish blocks,
// not vertices). The vertices themselves come from the freelist.
func TestChainSignalCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behaviour")
	}
	d := New(counter.FetchAdd{})
	u, _ := d.Make()
	u.ctx = newTestCtx(1)
	allocs := testing.AllocsPerRun(2000, func() {
		v, w := u.Chain()
		v.Signal() // readies w
		v.Recycle()
		u.Recycle() // u died in the Chain
		u = w       // w carries the obligation forward
	})
	if allocs > 2 {
		t.Fatalf("chain-signal cycle allocates %.1f objects, want ≤ 2 (the per-chain counter)", allocs)
	}
}

// TestRecycleLiveVertexPanics: recycling a vertex that has not
// performed its terminal operation is a discipline violation.
func TestRecycleLiveVertexPanics(t *testing.T) {
	d := New(counter.FetchAdd{})
	root, _ := d.Make()
	// root is pinned; use a spawned child instead.
	root.ctx = newTestCtx(1)
	v, _ := root.Spawn()
	defer func() {
		if recover() == nil {
			t.Fatal("Recycle on a live vertex did not panic")
		}
	}()
	v.Recycle()
}

// TestVertexStorageIsReused checks the freelist actually round-trips
// storage: after a recycle, the next vertex created under the same
// context reuses the same allocation.
func TestVertexStorageIsReused(t *testing.T) {
	d := New(counter.FetchAdd{})
	u, _ := d.Make()
	u.ctx = newTestCtx(1)
	v, w := u.Spawn()
	w.Signal()
	w.Recycle()
	v2, w2 := v.Spawn()
	if w2 != w && v2 != w {
		t.Fatal("recycled vertex storage was not reused by the next spawn under the same context")
	}
	_ = v2
}

// TestNodePoolsHoming: a context homed on a node overflows into and
// draws from that node's pool, and DrainFree returns the freelist to
// the owner node — the per-node ownership the topology-aware scheduler
// relies on. sync.Pool keeps nothing it is not obliged to (GC pressure
// empties it, and under -race it drops Puts at random), so the test
// runs drain → get cycles: node 1's pool must hand a drained vertex
// back at least once, and node 0's pool must never return one.
func TestNodePoolsHoming(t *testing.T) {
	pools := NewNodePools(2)
	if pools.Nodes() != 2 {
		t.Fatalf("Nodes = %d", pools.Nodes())
	}
	ctx := newTestCtx(1)
	ctx.Pool, ctx.Node = pools, 1

	d := New(counter.FetchAdd{})
	homed := false
	for cycle := 0; cycle < 100 && !homed; cycle++ {
		u, _ := d.Make()
		u.ctx = ctx
		_, w := u.Spawn()
		w.Signal()
		w.Recycle() // → ctx.free
		if len(ctx.free) != 1 {
			t.Fatalf("freelist holds %d vertices, want 1", len(ctx.free))
		}
		ctx.DrainFree()
		if ctx.free != nil {
			t.Fatal("DrainFree left a freelist behind")
		}
		if pools.get(0) == w {
			t.Fatalf("cycle %d: node 0's pool returned the vertex drained to node 1", cycle)
		}
		homed = pools.get(1) == w
	}
	if !homed {
		t.Fatal("node 1's pool never returned the vertex drained to it in 100 cycles")
	}
}

// TestNodePoolsClamp: out-of-range node ids (a topology/scheduler
// mismatch) degrade to node 0 instead of panicking.
func TestNodePoolsClamp(t *testing.T) {
	pools := NewNodePools(0) // clamps to one node
	if pools.Nodes() != 1 {
		t.Fatalf("Nodes = %d", pools.Nodes())
	}
	v := pools.get(5)
	if v == nil {
		t.Fatal("get on an out-of-range node returned nil")
	}
	pools.put(-3, v) // must not panic
}

// TestPinnedVerticesAreNotRecycled: Make's root and final stay valid
// after execution — the Run machinery reads them from the submitting
// goroutine.
func TestPinnedVerticesAreNotRecycled(t *testing.T) {
	d := New(counter.FetchAdd{})
	root, final := d.Make()
	executed := false
	final.SetBody(func(*Vertex) { executed = true })
	root.Execute(nil) // signals final through the counter
	final.Execute(nil)
	if !executed {
		t.Fatal("final did not execute")
	}
	if !root.Dead() || !final.Dead() {
		t.Fatal("pinned vertices lost their state — they were recycled")
	}
	if final.Counter() == nil {
		t.Fatal("final's counter unreadable after execution")
	}
}

// TestVertexLayout pins the vertex under 128 bytes: past that the
// allocator moves it from the 128-byte size class to the 144-byte one,
// and every pooled vertex grows by 16 bytes.
func TestVertexLayout(t *testing.T) {
	if s := unsafe.Sizeof(Vertex{}); s > 128 {
		t.Fatalf("sizeof(Vertex) = %d, want ≤ 128 (the 128-byte size class)", s)
	}
}

// TestFinishCounterTravelsWithVertex: the counter of a recycled finish
// vertex backs the next finish vertex created under the same context,
// so a warm chain-signal cycle on the default counter allocates
// nothing, where fetchadd allocates its counter each time (see
// TestChainSignalCycleAllocs).
func TestFinishCounterTravelsWithVertex(t *testing.T) {
	d := New(counter.NewAdaptive(0, 25))
	u, _ := d.Make()
	u.ctx = newTestCtx(1)
	cycle := func() {
		v, w := u.Chain()
		v.Signal() // readies w
		v.Recycle()
		u.Recycle() // u died in the Chain; it carries its spent counter
		u = w
	}
	cycle()
	cycle()
	spent := u.ctx.fins[len(u.ctx.fins)-1].ctr
	cycle()
	if u.ctr != spent {
		t.Fatal("the next finish vertex did not reuse the recycled finish vertex's counter")
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(2000, cycle); allocs != 0 {
		t.Fatalf("warm chain-signal cycle allocates %.1f objects, want 0", allocs)
	}
}

// TestFinishCounterLiveUntilExecute runs trees of nested finish blocks
// on one context, so finish counters are recycled and renewed between
// and within runs, and every finish body reads its own counter: it is
// the vertex's until its Execute returns. Under -tags nestedchecks a
// counter parked too early (at its zero report, say) panics on that
// read, and the panic surfaces as the computation's error.
func TestFinishCounterLiveUntilExecute(t *testing.T) {
	var stack []*Vertex
	d := New(counter.NewAdaptive(0, 25), WithScheduler(func(v *Vertex) { stack = append(stack, v) }))
	ctx := &ExecContext{G: rng.NewXoshiro(1), Push: func(v *Vertex) { stack = append(stack, v) }}
	finishes := 0
	seen := map[counter.Counter]bool{}
	finishBody := func(self *Vertex) {
		c := self.Counter()
		if !c.IsZero() || c.NodeCount() != 1 {
			panic("finish vertex runs with a live or promoted counter")
		}
		finishes++
		seen[c] = true
	}
	var tree func(m int) Body
	tree = func(m int) Body {
		return func(u *Vertex) {
			if m < 2 {
				return
			}
			v, w := u.Chain()
			w.SetBody(finishBody)
			v.SetBody(func(self *Vertex) {
				a, b := self.Spawn()
				a.SetBody(tree(m / 2))
				b.SetBody(tree(m / 2))
				a.TrySchedule()
				b.TrySchedule()
			})
			v.TrySchedule()
		}
	}
	const leaves, runs = 64, 4
	for range runs {
		root, final := d.Make()
		root.SetBody(tree(leaves))
		root.TrySchedule()
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v.Execute(ctx)
		}
		if err := final.Err(); err != nil {
			t.Fatal(err)
		}
		if !final.Dead() {
			t.Fatal("final vertex never executed")
		}
	}
	if finishes != runs*(leaves-1) {
		t.Fatalf("%d finish bodies ran, want %d", finishes, runs*(leaves-1))
	}
	if len(seen) >= finishes {
		t.Fatalf("%d distinct counters over %d finish blocks: no counter was reused", len(seen), finishes)
	}
}
