package stallsim

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/rng"
	"repro/internal/snzi"
)

// SimState is a dag vertex's capability on a simulated dependency
// counter, mirroring internal/counter.State. The g parameter is the
// simulated thread's local randomness (coin flips and leaf hashing are
// thread-local computation, not shared-memory steps).
type SimState interface {
	Increment(e *memmodel.Env, g *rng.Xoshiro256ss) (left, right SimState)
	Decrement(e *memmodel.Env) bool
}

// SimCounter is a simulated dependency counter.
type SimCounter interface {
	RootState() SimState
	// IsZero peeks at quiescence (no step charged); for post-run asserts.
	IsZero() bool
}

// SimAlgorithm builds simulated counters; the analogue of
// counter.Algorithm. New is the pre-run constructor; NewInEnv creates
// a counter from inside a running simulated thread (per-finish-block
// counters, as the indegree2 workload needs). For the fixed-depth
// algorithm NewInEnv pays its tree construction in charged memory
// steps, which is exactly the per-finish-block allocation cost the
// paper's Figure 10 exposes.
type SimAlgorithm interface {
	Name() string
	New(sim *memmodel.Sim, initial uint64) SimCounter
	NewInEnv(e *memmodel.Env, initial uint64) SimCounter
}

// ---------------------------------------------------------------------------
// Fetch-and-add

// FetchAdd is the single-cell baseline: one FAA per operation, all on
// the same word — Θ(P) stalls per operation with P poised threads.
type FetchAdd struct{}

// Name implements SimAlgorithm.
func (FetchAdd) Name() string { return "fetchadd" }

// New implements SimAlgorithm.
func (FetchAdd) New(sim *memmodel.Sim, initial uint64) SimCounter {
	c := &faCounter{sim: sim, cell: sim.Alloc(initial)}
	c.state = faState{c: c}
	return c
}

// NewInEnv implements SimAlgorithm.
func (FetchAdd) NewInEnv(e *memmodel.Env, initial uint64) SimCounter {
	c := &faCounter{sim: e.Sim(), cell: e.Alloc(initial)}
	c.state = faState{c: c}
	return c
}

type faCounter struct {
	sim   *memmodel.Sim
	cell  memmodel.Addr
	state faState
}

func (c *faCounter) RootState() SimState { return &c.state }
func (c *faCounter) IsZero() bool        { return c.sim.Peek(c.cell) == 0 }

type faState struct{ c *faCounter }

func (s *faState) Increment(e *memmodel.Env, _ *rng.Xoshiro256ss) (SimState, SimState) {
	e.FAA(s.c.cell, 1)
	return s, s
}

func (s *faState) Decrement(e *memmodel.Env) bool {
	prev := e.FAA(s.c.cell, ^uint64(0)) // add −1
	if prev == 0 {
		panic("stallsim: fetch-and-add counter underflow")
	}
	return prev == 1
}

// ---------------------------------------------------------------------------
// Shared decrement pairs (used by the in-counter and fixed SNZI)

// decPair is the claimable ordered handle pair; the claim flag is a
// shared word because the test-and-set is a real synchronization step
// between the two sibling vertices.
type decPair struct {
	flag          memmodel.Addr
	first, second *Node
}

func newDecPair(e *memmodel.Env, first, second *Node) *decPair {
	return &decPair{flag: e.Alloc(0), first: first, second: second}
}

func (p *decPair) claim(e *memmodel.Env) *Node {
	if e.CAS(p.flag, 0, 1) {
		return p.first
	}
	return p.second
}

// ---------------------------------------------------------------------------
// Dynamic in-counter

// Dynamic is the paper's in-counter over simulated memory. Threshold
// is the grow-probability denominator (≤1 means p = 1).
type Dynamic struct{ Threshold uint64 }

// Name implements SimAlgorithm.
func (d Dynamic) Name() string { return "dyn" }

// New implements SimAlgorithm.
func (d Dynamic) New(sim *memmodel.Sim, initial uint64) SimCounter {
	return &dynCounter{tree: NewTree(sim, initial), threshold: d.Threshold}
}

// NewInEnv implements SimAlgorithm.
func (d Dynamic) NewInEnv(e *memmodel.Env, initial uint64) SimCounter {
	return &dynCounter{tree: NewTreeInEnv(e, initial), threshold: d.Threshold}
}

type dynCounter struct {
	tree      *Tree
	threshold uint64

	// MaxArrives records the largest node-level arrive count observed
	// in any single increment — the Corollary 4.7 quantity.
	MaxArrives int
}

func (c *dynCounter) RootState() SimState {
	r := c.tree.Root()
	return &dynState{c: c, inc: r, dec: &decPair{flag: c.tree.sim.Alloc(0), first: r, second: r}}
}

func (c *dynCounter) IsZero() bool {
	return !snzi.IndValue(c.tree.sim.Peek(c.tree.Root().ind))
}

type dynState struct {
	c   *dynCounter
	inc *Node
	dec *decPair
}

func (s *dynState) Increment(e *memmodel.Env, g *rng.Xoshiro256ss) (SimState, SimState) {
	a, b := s.inc.Grow(e, g.Flip(s.c.threshold))
	d2 := b
	if s.inc.left {
		d2 = a
	}
	arrives := d2.Arrive(e)
	if arrives > s.c.MaxArrives {
		s.c.MaxArrives = arrives
	}
	d1 := s.dec.claim(e)
	pair := newDecPair(e, d1, d2)
	return &dynState{c: s.c, inc: a, dec: pair}, &dynState{c: s.c, inc: b, dec: pair}
}

func (s *dynState) Decrement(e *memmodel.Env) bool {
	return s.dec.claim(e).Depart(e)
}

// ---------------------------------------------------------------------------
// Fixed-depth SNZI

// FixedSNZI allocates a complete simulated SNZI tree per counter and
// hashes arrives across its leaves.
type FixedSNZI struct{ Depth int }

// Name implements SimAlgorithm.
func (f FixedSNZI) Name() string { return fmt.Sprintf("snzi-%d", f.Depth) }

// New implements SimAlgorithm.
func (f FixedSNZI) New(sim *memmodel.Sim, initial uint64) SimCounter {
	// Pre-run construction: link children directly (the CAS-free
	// analogue of NewFixedTree; setup cost is not part of the measured
	// operations).
	return f.build(NewTree(sim, initial), sim.Alloc, func(a memmodel.Addr, v uint64) { sim.SetWord(a, v) })
}

// NewInEnv implements SimAlgorithm. Construction performed during the
// run pays one charged write per interior node — the per-finish-block
// allocation cost the fixed-depth baseline incurs on indegree2.
func (f FixedSNZI) NewInEnv(e *memmodel.Env, initial uint64) SimCounter {
	return f.build(NewTreeInEnv(e, initial), e.Alloc, e.Write)
}

func (f FixedSNZI) build(t *Tree, alloc func(uint64) memmodel.Addr, write func(memmodel.Addr, uint64)) SimCounter {
	level := []*Node{t.Root()}
	for d := 0; d < f.Depth; d++ {
		next := make([]*Node, 0, 2*len(level))
		for _, n := range level {
			// ids are assigned adjacent to the append (allocs are
			// scheduling points; the tree is thread-private during
			// construction, but we keep the same discipline as
			// newChild).
			l := &Node{tree: t, parent: n, left: true}
			l.word = alloc(snzi.PackCV(0, 0))
			l.children = alloc(0)
			l.id = len(t.nodes)
			t.nodes = append(t.nodes, l)
			r := &Node{tree: t, parent: n, left: false}
			r.word = alloc(snzi.PackCV(0, 0))
			r.children = alloc(0)
			r.id = len(t.nodes)
			t.nodes = append(t.nodes, r)
			write(n.children, packChildren(l.id, r.id))
			next = append(next, l, r)
		}
		level = next
	}
	return &fixedCounter{tree: t, leaves: level}
}

type fixedCounter struct {
	tree   *Tree
	leaves []*Node
}

func (c *fixedCounter) RootState() SimState {
	r := c.tree.Root()
	return &fixedState{c: c, pair: &decPair{flag: c.tree.sim.Alloc(0), first: r, second: r}}
}

func (c *fixedCounter) IsZero() bool {
	return !snzi.IndValue(c.tree.sim.Peek(c.tree.Root().ind))
}

type fixedState struct {
	c    *fixedCounter
	pair *decPair
}

func (s *fixedState) Increment(e *memmodel.Env, g *rng.Xoshiro256ss) (SimState, SimState) {
	leaf := s.c.leaves[g.Uint64n(uint64(len(s.c.leaves)))]
	leaf.Arrive(e)
	d1 := s.pair.claim(e)
	pair := newDecPair(e, d1, leaf)
	return &fixedState{c: s.c, pair: pair}, &fixedState{c: s.c, pair: pair}
}

func (s *fixedState) Decrement(e *memmodel.Env) bool {
	return s.pair.claim(e).Depart(e)
}
