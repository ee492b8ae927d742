package counter

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/rng"
)

// Dynamic is the paper's in-counter algorithm (package core) behind
// the Algorithm interface. Threshold is the denominator of the grow
// probability p = 1/Threshold; 0 or 1 grows on every increment (the
// p = 1 setting of the paper's analysis). The paper's evaluation uses
// Threshold = 25 · cores.
type Dynamic struct {
	Threshold uint64
	Variant   core.Variant
	// Prune enables the §B space management (subtree reclamation on
	// phase change to zero); its space guarantee holds at Threshold 1.
	Prune bool
}

// Name implements Algorithm. The artifact calls this algorithm "dyn".
func (d Dynamic) Name() string { return "dyn" }

// String includes the tuning for logs.
func (d Dynamic) String() string { return fmt.Sprintf("dyn(threshold=%d)", d.Threshold) }

// New implements Algorithm.
func (d Dynamic) New(initial int) Counter {
	opts := []core.Option{core.WithVariant(d.Variant)}
	if d.Prune {
		opts = append(opts, core.WithPruning())
	}
	return &dynCounter{c: core.New(initial, opts...), threshold: d.Threshold}
}

type dynCounter struct {
	c         *core.InCounter
	threshold uint64
}

func (dc *dynCounter) IsZero() bool     { return dc.c.IsZero() }
func (dc *dynCounter) NodeCount() int64 { return dc.c.NodeCount() }

func (dc *dynCounter) RootState() State {
	return newDynState(dc.c.RootState(), dc)
}

// Unwrap exposes the underlying in-counter for invariant tests.
func (dc *dynCounter) Unwrap() *core.InCounter { return dc.c }

// attach registers one dependency out of band (a root arrive; see
// core.InCounter.Attach) and returns a fresh pooled state holding it —
// the entry point the adaptive counter migrates legacy obligations
// through. The caller owns the returned state and must Release it
// after its terminal operation.
func (dc *dynCounter) attach() *dynState {
	return newDynState(dc.c.Attach(), dc)
}

// dynStatePool recycles the per-spawn dynState objects. Every spawn
// creates two and consumes one, so without pooling the states are the
// second-largest allocation source of the whole hot path (after the
// vertices themselves). The pool is process-wide: a state is fully
// reinitialized by newDynState, and the embedded core.State is a plain
// value, so cross-counter reuse is safe.
var dynStatePool = sync.Pool{New: func() any { return new(dynState) }}

func newDynState(s core.State, owner *dynCounter) *dynState {
	ds := dynStatePool.Get().(*dynState)
	ds.s, ds.owner = s, owner
	return ds
}

type dynState struct {
	s     core.State
	owner *dynCounter
}

func (ds *dynState) Increment(g *rng.Xoshiro256ss) (State, State) {
	l, r := ds.s.Increment(g.Flip(ds.owner.threshold))
	return newDynState(l, ds.owner), newDynState(r, ds.owner)
}

func (ds *dynState) Decrement() bool { return ds.s.Decrement() }

// Release implements Releaser: the sp-dag runtime calls it right after
// the owning vertex's terminal Increment or Decrement, when no other
// party can reach the state (each dynState belongs to exactly one
// vertex; the structure the two spawn siblings share is the DecPair,
// which lives on independently).
func (ds *dynState) Release() {
	ds.s, ds.owner = core.State{}, nil
	dynStatePool.Put(ds)
}
