package spdag

import (
	"testing"

	"repro/internal/counter"
	"repro/internal/rng"
)

// newTestCtx builds a worker-style execution context for driving
// structural operations by hand.
func newTestCtx(seed uint64) *ExecContext {
	return &ExecContext{G: rng.NewXoshiro(seed)}
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
