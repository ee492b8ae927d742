// Package core implements the in-counter, the primary contribution of
// Acar, Ben-David and Rainey, "Contention in Structured Concurrency:
// Provably Efficient Dynamic Non-Zero Indicators for Nested
// Parallelism" (PPoPP 2017, §3.3, Figure 5).
//
// An in-counter tracks the unsatisfied dependencies of one vertex of a
// series-parallel dag (its "finish" vertex). It is fundamentally a
// dynamic SNZI tree plus a handle discipline:
//
//   - every dag vertex holds an increment handle into the in-counter
//     of its finish vertex, telling it where in the tree its next
//     Increment should start;
//   - sibling dag vertices share an ordered pair of decrement handles,
//     claimed by test-and-set, with the first handle always pointing
//     higher in the tree than the second, so that higher SNZI nodes
//     are decremented earlier.
//
// Together these ensure the leaves-only-zero invariant (only leaves of
// the SNZI tree can have zero surplus, Lemma 4.5), which is what makes
// every Increment complete within at most 3 node-level arrives
// (Corollary 4.7) and gives the amortized O(1) time and contention
// bounds (Theorems 4.8, 4.9).
//
// The handle discipline is captured by the State type. Callers must
// follow the valid-execution rules of Definition 1, which the sp-dag
// runtime (package spdag) does by construction:
//
//   - a State is used by exactly one logical vertex;
//   - a vertex performs at most one of Increment (if it spawns) or
//     Decrement (if it terminates) — whichever it performs is its last
//     use of the State (a chained vertex hands its State to its
//     successor instead);
//   - every Increment's returned States are each given to exactly one
//     new vertex.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/snzi"
)

// Handle is a position in an in-counter's SNZI tree.
type Handle = *snzi.Node

// DecPair is the ordered pair of decrement handles shared by two
// sibling dag vertices. The first handle always points at least as
// high in the SNZI tree as the second; the first of the two sharers to
// need a decrement handle claims the first (higher) one via
// test-and-set, implementing the "decrement higher nodes earlier"
// priority of §3.3 on which Lemma 4.6 rests.
type DecPair struct {
	claimed atomic.Bool
	first   Handle // inherited from the parent vertex; higher in the tree
	second  Handle // the node freshly arrived at by the creating Increment
}

// decPairPool recycles DecPair objects: one pair is created per
// increment (spawn), making it the last per-spawn allocation once
// vertices and states are pooled. A pair is provably finished at its
// second Claim — each of the two sharing vertices claims at most once,
// as its terminal operation — so the second claimer returns it.
var decPairPool = sync.Pool{New: func() any { return new(DecPair) }}

// NewDecPair builds a pair directly. It is exported for the sp-dag
// runtime (which creates root and chain pairs) and for tests; normal
// pairs are created by Increment.
func NewDecPair(first, second Handle) *DecPair {
	p := decPairPool.Get().(*DecPair)
	p.claimed.Store(false)
	p.first, p.second = first, second
	return p
}

// Claim returns the first (higher) handle to the first caller and the
// second handle to the second; it must be called at most twice per
// pair, once per sharing vertex (claim_dec in Figure 5).
//
// The second Claim retires the pair into the pool. Both claimers read
// their handle fields strictly before the point at which the pair can
// be retired — the first claimer reads before its winning CAS, which
// precedes the loser's failed CAS, which precedes the retire — so a
// reused pair can never be observed through a stale claim.
func (p *DecPair) Claim() Handle {
	first := p.first
	if p.claimed.CompareAndSwap(false, true) {
		return first
	}
	second := p.second
	p.first, p.second = nil, nil
	decPairPool.Put(p)
	return second
}

// Claimed reports whether the first handle has been claimed
// (diagnostic, used by the Lemma 4.4 tests).
func (p *DecPair) Claimed() bool { return p.claimed.Load() }

// Variant selects an implementation variant for ablation studies
// (DESIGN.md §5). The zero value is the paper's algorithm.
type Variant uint8

const (
	// VariantPaper is the algorithm exactly as in Figure 5.
	VariantPaper Variant = 0
	// VariantNaiveDecOrder reverses the decrement-handle order: the
	// freshly incremented (lower) node is placed first in the pair, so
	// lower nodes are decremented before higher ones. This deliberately
	// breaks the priority that Lemma 4.6 relies on and is used to
	// measure how much the ordering matters (ablation A2).
	VariantNaiveDecOrder Variant = 1 << iota
	// VariantArriveAtHandle makes Increment arrive at the handle's own
	// node rather than at a freshly grown child, breaking the
	// leaves-only-zero invariant of Lemma 4.5 (ablation A3). Increment
	// handles still advance to the children so the tree still grows.
	VariantArriveAtHandle
)

// InCounter is the dependency counter for a single finish vertex.
type InCounter struct {
	tree    *snzi.Tree
	variant Variant
}

// Option configures an InCounter.
type Option func(*config)

type config struct {
	variant Variant
	snziOpt []snzi.Option
}

// WithVariant selects an ablation variant.
func WithVariant(v Variant) Option {
	return func(c *config) { c.variant = v }
}

// WithInstrumentation enables shared-memory step accounting on the
// underlying SNZI tree.
func WithInstrumentation() Option {
	return func(c *config) { c.snziOpt = append(c.snziOpt, snzi.WithInstrumentation()) }
}

// WithPruning enables the §B space management: subtrees whose surplus
// returns to zero are unlinked for collection. The space bound is
// proven for grow probability 1 (threshold 1); with probabilistic
// growth pruning remains correct but may reclaim less (see
// snzi.WithPruning).
func WithPruning() Option {
	return func(c *config) { c.snziOpt = append(c.snziOpt, snzi.WithPruning()) }
}

// New creates an in-counter with initial count n (make(n) in Figure
// 5). The sp-dag runtime uses n = 1 for finish vertices (the
// serially-preceding vertex is the initial dependency) and n = 0 for
// source vertices.
func New(n int, opts ...Option) *InCounter {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return &InCounter{tree: snzi.NewTree(n, c.snziOpt...), variant: c.variant}
}

// IsZero reports whether the counter is zero, i.e. the vertex owning
// this in-counter has no unsatisfied dependencies (is_zero in Figure
// 5). It reads only the SNZI root indicator.
func (c *InCounter) IsZero() bool { return !c.tree.Query() }

// Tree exposes the underlying SNZI tree for statistics (node counts,
// instrumentation) and invariant-checking tests.
func (c *InCounter) Tree() *snzi.Tree { return c.tree }

// NodeCount returns the number of SNZI nodes allocated into this
// in-counter (the artifact's nb_incounter_nodes).
func (c *InCounter) NodeCount() int64 { return c.tree.NodeCount() }

// RootState returns the handle state held by the vertex that the
// counter's finish vertex serially depends on: increment handle at the
// root, and a fresh decrement pair with both handles at the root. Only
// one vertex may ever hold this state (sp-dag Make and Chain each
// create exactly one).
func (c *InCounter) RootState() State {
	r := c.tree.Root()
	return State{counter: c, inc: r, dec: NewDecPair(r, r)}
}

// Attach registers one new dependency on the counter out of band —
// arriving at the root — and returns a fresh State holding it, with
// both handles at the root. It is the migration entry point for
// two-phase counters (the adaptive algorithm in package counter):
// obligations that were tracked elsewhere enter the in-counter here,
// one Attach per obligation, without having been created by an
// Increment of an existing State.
//
// Attach deliberately relaxes the Lemma 4.3 handle-uniqueness
// discipline (several attached states may share the root as their
// increment handle). Counting stays exact — the SNZI surplus does not
// care where arrives come from — and each attached state's descendants
// re-enter the normal Definition 1 regime; only the amortized
// contention bound of the attached operations themselves is weakened,
// which is why callers should Attach a bounded number of times per
// counter (the adaptive counter attaches at most twice per legacy
// cell obligation).
func (c *InCounter) Attach() State {
	r := c.tree.Root()
	r.Arrive()
	return State{counter: c, inc: r, dec: NewDecPair(r, r)}
}

// State is one dag vertex's view into the in-counter of its finish
// vertex: where its Increment would start (inc) and which decrement
// pair it shares with its sibling (dec).
//
// A State value is not safe for concurrent use; it belongs to exactly
// one vertex. The shared *DecPair it references is safe for the
// two-sided claim protocol.
type State struct {
	counter *InCounter
	inc     Handle
	dec     *DecPair
}

// Counter returns the in-counter this state points into.
func (s State) Counter() *InCounter { return s.counter }

// IncHandle returns the increment handle (diagnostic; tests use it to
// verify Lemma 4.3's handle uniqueness).
func (s State) IncHandle() Handle { return s.inc }

// DecHandles returns the shared decrement pair (diagnostic).
func (s State) DecHandles() *DecPair { return s.dec }

// Valid reports whether the state is usable (non-nil handles).
func (s State) Valid() bool { return s.counter != nil && s.inc != nil && s.dec != nil }

// Increment registers one new dependency on the finish vertex
// (increment in Figure 5; called when a dag vertex spawns). heads is
// the caller's coin flip with the configured growth probability; it
// must be flipped fresh for this call (see snzi.Grow for why the flip
// must precede the call).
//
// It returns the States for the two vertices created by the spawn: the
// left State (the spawning vertex's continuation) and the right State.
// Both share a new decrement pair ordered [inherited, fresh].
//
// Increment must be the last use of s by its vertex.
func (s State) Increment(heads bool) (left, right State) {
	left, right, _ = s.IncrementDepth(heads)
	return left, right
}

// IncrementDepth is Increment, additionally reporting how many
// node-level arrives the underlying SNZI operation performed. The
// analysis bounds this by 3 for valid sp-dag executions (Corollary
// 4.7); the invariant tests rely on this hook.
func (s State) IncrementDepth(heads bool) (left, right State, depth int) {
	v := s.counter.variant
	a, b := s.inc.Grow(heads)

	// Choose the node to arrive at: the fresh child on the same side as
	// the calling vertex (line 22 of Figure 5). If the tree did not grow
	// (a == b == s.inc), this degenerates to arriving at the handle.
	var d2 Handle
	if v&VariantArriveAtHandle != 0 {
		d2 = s.inc
	} else if s.inc.IsLeft() {
		d2 = a
	} else {
		d2 = b
	}
	depth = d2.ArriveDepth()

	// Claim the inherited decrement handle only after the arrive has
	// completed (§3.3: this ordering keeps phase changes rare).
	d1 := s.dec.Claim()

	var pair *DecPair
	if v&VariantNaiveDecOrder != 0 {
		pair = NewDecPair(d2, d1)
	} else {
		pair = NewDecPair(d1, d2)
	}
	return State{counter: s.counter, inc: a, dec: pair},
		State{counter: s.counter, inc: b, dec: pair}, depth
}

// Decrement discharges one dependency of the finish vertex (decrement
// in Figure 5; called when a dag vertex signals its termination). It
// returns true iff this call brought the counter to zero — per §5,
// readiness detection uses this return value rather than polling
// IsZero, because only the caller that zeroes the counter may schedule
// the finish vertex.
//
// Decrement must be the last use of s by its vertex.
func (s State) Decrement() bool {
	return s.dec.Claim().Depart()
}

// String formats the state for debugging.
func (s State) String() string {
	if !s.Valid() {
		return "core.State{invalid}"
	}
	return fmt.Sprintf("core.State{inc@depth=%d left=%v}", s.inc.Depth(), s.inc.IsLeft())
}
