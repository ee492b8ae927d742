package counter

import (
	"fmt"
	"sync/atomic"

	"repro/internal/rng"
)

// DefaultContention is the promotion threshold used when Adaptive's
// Contention field is zero: the number of CAS failures observed on the
// flat cell before the counter promotes. CAS failures only happen when
// another operation wrote the cell between an op's load and its CAS —
// the cheapest proxy for cache-line contention the cell can observe
// about itself — so the threshold is a direct "observed collisions"
// budget, not a rate. It is deliberately small: a genuinely contended
// finish block crosses it in microseconds, while a sequential or
// well-spaced workload never fails a CAS at all.
const DefaultContention = 32

// Adaptive is the contention-adaptive dependency counter: it starts
// life as a single fetch-and-add cell — the optimal algorithm while
// uncontended (PPoPP'17 Figure 8, p=1) — and reacts when the cell
// observes sustained contention, so one algorithm serves both ends of
// the evaluation's crossover without the user picking per workload.
// What "reacts" means depends on Batch; both forms rest on one hold
// rule (DESIGN.md §6): a source with obligations still in flight
// pre-pays units in its destination and settles them when it drains.
//
// With Batch ≤ 1 (the default) promotion installs the paper's dynamic
// in-counter, seeded with one extra dependency (the anchor). Operations
// that start after the installation route new obligations to the
// in-counter while obligations already tracked by the cell keep
// draining it; the unique operation that drains the cell to zero
// discharges the anchor. A counter that was contended once stays
// promoted for its (single finish block) lifetime.
//
// With Batch ≥ 2 the cell stays the only shared word and promotion
// merely flips an advisory flag: while it is set, workers accumulate
// the counter's operations in private delta slots (counter.Home) and
// settle them against the cell in one weighted RMW when the local
// delta crosses the batch threshold or at worker boundaries; a counter
// whose flushes stay contention-free for a calm streak clears the flag
// again — the burst-recovery path the spec exposes as
// `adaptive:K:batch`.
type Adaptive struct {
	// Contention is the promotion threshold: cumulative CAS failures on
	// the cell before promoting. 0 means DefaultContention.
	Contention uint64
	// Threshold is the grow-probability denominator of the in-counter
	// the cell promotes into, exactly as in Dynamic.Threshold.
	Threshold uint64
	// Batch enables the batched frontend: per-worker deltas flush into
	// the cell when |delta| reaches Batch. 0 or 1 disables batching
	// (and demotion) entirely.
	Batch uint64
	// Eager promotes every counter at creation instead of waiting for
	// the CAS-miss signal (Parse spells it adaptive:0[:batch]). The
	// promoted regime then exists by construction — the knob the
	// batch-threshold sweep turns so its measurements do not depend on
	// the host having enough parallelism to produce organic misses
	// (a single-core host may never fail a CAS at all). Demoted
	// counters re-promote through the normal miss signal.
	Eager bool
	// Stats, when non-nil, receives promotion accounting shared by every
	// counter this algorithm instance creates. Parse and NewAdaptive
	// always wire one; a zero-value literal simply goes uncounted.
	Stats *AdaptiveStats
}

// AdaptiveStats aggregates lifecycle events across all counters of one
// Adaptive algorithm instance (a runtime's worth of finish blocks).
type AdaptiveStats struct {
	// Promotions counts in-counter installs (unbatched) or flips into
	// buffering mode (batched; re-promotions after a demotion count
	// again).
	Promotions atomic.Uint64
	// Demotions counts flips back out of buffering mode after a calm
	// streak (batched mode only).
	Demotions atomic.Uint64
	// Counters counts counters created.
	Counters atomic.Uint64
}

// PromotionReporter is implemented by algorithms that migrate between
// representations at runtime; the public API surfaces the count in
// repro.Stats.
type PromotionReporter interface {
	// Promotions returns how many counters have promoted so far.
	Promotions() uint64
}

// DemotionReporter is implemented by algorithms that can migrate back
// to a cheaper representation (the batched adaptive counter); the
// public API surfaces the count in repro.Stats.
type DemotionReporter interface {
	// Demotions returns how many counters have demoted so far.
	Demotions() uint64
}

// NewAdaptive returns an Adaptive algorithm with a fresh stats sink.
// contention 0 means DefaultContention; grow is the in-counter grow
// denominator (0 or 1 grows on every increment).
func NewAdaptive(contention, grow uint64) Adaptive {
	return Adaptive{Contention: contention, Threshold: grow, Stats: new(AdaptiveStats)}
}

// Name implements Algorithm.
func (a Adaptive) Name() string { return "adaptive" }

// String includes the tuning for logs.
func (a Adaptive) String() string {
	k := fmt.Sprintf("%d", a.contention())
	if a.Eager {
		k = "eager"
	}
	if a.batch() > 1 {
		return fmt.Sprintf("adaptive(contention=%s,threshold=%d,batch=%d)", k, a.Threshold, a.batch())
	}
	return fmt.Sprintf("adaptive(contention=%s,threshold=%d)", k, a.Threshold)
}

// Promotions implements PromotionReporter.
func (a Adaptive) Promotions() uint64 {
	if a.Stats == nil {
		return 0
	}
	return a.Stats.Promotions.Load()
}

// Demotions implements DemotionReporter.
func (a Adaptive) Demotions() uint64 {
	if a.Stats == nil {
		return 0
	}
	return a.Stats.Demotions.Load()
}

func (a Adaptive) contention() uint64 {
	if a.Contention == 0 {
		return DefaultContention
	}
	return a.Contention
}

func (a Adaptive) batch() uint64 {
	if a.Batch == 0 {
		return 1
	}
	return a.Batch
}

// New implements Algorithm.
func (a Adaptive) New(initial int) Counter {
	if a.Stats != nil {
		a.Stats.Counters.Add(1)
	}
	c := &adaptiveCounter{contention: a.contention(), grow: a.Threshold, batch: a.batch(), stats: a.Stats}
	c.cell.Store(int64(initial))
	c.fa.c = c
	if a.Eager {
		c.promote() // the cell holds only initial: the pin's release cannot drain it
	}
	return c
}

// adaptiveCounter is one finish block's counter. The hot word (cell)
// sits on its own cache line; everything else is colder and shares the
// next. The struct is exactly 128 bytes (two lines, asserted by
// TestAdaptiveCounterLayout) so Go's size-class allocator hands out
// 64-aligned blocks and neighboring counters can never share cell's
// line — a 112-byte layout would be allocated at 112-byte strides,
// putting half of all counters' hot words mid-line.
type adaptiveCounter struct {
	cell atomic.Int64
	_    [56]byte // keep the contended word alone on its line

	misses atomic.Uint64 // cumulative cell CAS failures
	// anchor is nil until an in-counter is installed (batch ≤ 1 only),
	// then that in-counter's initial dependency — anchor.owner is the
	// in-counter — held by the adaptive counter itself and discharged
	// exactly once, by the operation that drains the cell to zero.
	anchor     atomic.Pointer[dynState]
	contention uint64
	grow       uint64
	batch      uint64 // flush threshold; ≤ 1 disables batching and demotion
	stats      *AdaptiveStats
	fa         adFAState // the one state every vertex of this counter shares
	// buffering is the batched mode flag (batch ≥ 2 only): while set,
	// operations with a Home in scope buffer there. It is advisory — an
	// operation acting on a stale value merely buffers, or does not,
	// against the same cell — so no soundness argument reads it.
	buffering atomic.Bool
	// calm counts consecutive calm flushes — the windowed decay signal
	// behind demotion (see observeFlush).
	calm atomic.Uint32
}

// IsZero implements Counter: the composite is zero only when the cell
// has drained and, if an in-counter is installed, it has too. While the
// cell is non-zero the anchor keeps the in-counter non-zero as well, so
// the two reads cannot race into a spurious zero.
func (c *adaptiveCounter) IsZero() bool {
	if c.cell.Load() != 0 {
		return false
	}
	a := c.anchor.Load()
	return a == nil || a.owner.IsZero()
}

// NodeCount implements Counter: the cell plus, after promotion, the
// in-counter's SNZI nodes.
func (c *adaptiveCounter) NodeCount() int64 {
	if a := c.anchor.Load(); a != nil {
		return 1 + a.owner.NodeCount()
	}
	return 1
}

// RootState implements Counter: the shared state.
func (c *adaptiveCounter) RootState() State { return &c.fa }

// Promoted reports whether the counter is currently promoted: an
// in-counter is installed, or the buffering flag is set (diagnostics
// and tests).
func (c *adaptiveCounter) Promoted() bool {
	return c.anchor.Load() != nil || c.buffering.Load()
}

// Misses returns the cumulative cell CAS-failure count (diagnostics).
//
// Accounting note, for comparison with the simulator: production adds
// one miss per failed CAS loop iteration, so an operation that loses
// the same collision round twice counts twice. The simulator's
// ContentionStep charges each collision round colliders−1 misses —
// one per loser, assuming every loser lands on its next attempt. The
// two agree exactly when losers retry successfully (the common case:
// the cell's CAS loop has no backoff, so a loser's reload usually
// wins its round); production reads ≥ the simulator when a loser
// loses again, which only promotes earlier. The crossval test in
// adaptive_test.go pins this relationship.
func (c *adaptiveCounter) Misses() uint64 { return c.misses.Load() }

// noteMiss records one cell CAS failure and promotes once the
// cumulative count crosses the threshold. The miss counter is itself a
// shared word, but it is touched only on failures. The caller is inside
// an operation whose own obligation is still in the cell, so the
// promoter's pin cannot be the unit that drains it.
func (c *adaptiveCounter) noteMiss() {
	if c.misses.Add(1) >= c.contention && c.promote() {
		panic("counter: adaptive counter drained under an operation in progress")
	}
}

// ContentionStep is the promotion decision of noteMiss as a pure
// function — the hook the discrete-event simulator (internal/sim) uses
// to model adaptive counters without running them. One observation
// window in which colliders operations hit the same cell concurrently
// costs colliders−1 CAS misses: exactly one op's CAS lands per
// collision round, each of the other colliders fails once, and the
// model assumes every loser lands on its next attempt. Production
// (noteMiss) counts one miss per failed CAS iteration, so it equals
// this accounting when losers win their retry and exceeds it when a
// loser collides again — i.e. real promotion can only be earlier than
// the simulated one, never later (the relationship Misses() documents
// and the crossval test pins). The returned promote flag is the
// threshold crossing; like the real counter, a caller promotes at most
// once per calm period and a contention of 0 means DefaultContention.
func ContentionStep(misses uint64, colliders int, contention uint64) (uint64, bool) {
	if contention == 0 {
		contention = DefaultContention
	}
	if colliders > 1 {
		misses += uint64(colliders - 1)
	}
	return misses, misses >= contention
}

// promote reacts to contention. Batched, it sets the buffering flag.
// Unbatched, it installs the in-counter under a pin: the promoter first
// takes a cell unit of its own — a CAS that fails at zero, so a drained
// counter is never promoted — then publishes the in-counter, born with
// one dependency (the anchor), and finally releases the pin like any
// other cell obligation. Installs therefore happen only while the cell
// is non-zero, and every install is followed by a cell drain that
// discharges its anchor. promote is safe to call at any time from any
// goroutine; the return value is the composite's zero report, possible
// only when the pin's release is the operation that drains the cell —
// i.e. never for a caller holding a live obligation of its own.
func (c *adaptiveCounter) promote() (zero bool) {
	if c.batch > 1 {
		if c.buffering.CompareAndSwap(false, true) {
			c.calm.Store(0)
			c.countPromotion()
		}
		return false
	}
	if c.anchor.Load() != nil || !c.pin() {
		return false
	}
	a := Dynamic{Threshold: c.grow}.New(1).RootState().(*dynState)
	if c.anchor.CompareAndSwap(nil, a) { // a racing promoter's loser is never published
		c.countPromotion()
	}
	return c.cellDec()
}

func (c *adaptiveCounter) countPromotion() {
	if c.stats != nil {
		c.stats.Promotions.Add(1)
	}
}

// pin adds one unit to a non-zero cell; it reports false, leaving the
// cell untouched, once the cell has drained.
func (c *adaptiveCounter) pin() bool {
	for {
		v := c.cell.Load()
		if v == 0 {
			return false
		}
		if c.cell.CompareAndSwap(v, v+1) {
			return true
		}
	}
}

// cellAdd applies k to the cell in one CAS and returns the new value
// and how many attempts lost to a concurrent writer — the batched
// frontend's contention signal. The slot rule (batch.go) keeps the
// result non-negative.
func (c *adaptiveCounter) cellAdd(k int64) (n int64, retries int) {
	for {
		v := c.cell.Load()
		if n = v + k; n < 0 {
			panic("counter: adaptive cell went negative (unbalanced decrement)")
		}
		if c.cell.CompareAndSwap(v, n) {
			return n, retries
		}
		retries++
	}
}

// cellDec discharges one cell obligation on the plain fetch-and-add
// path (used once the caller has observed the promotion, so CAS-miss
// sampling no longer matters). The unique call that drains the cell
// routes through cellDrained; its return value is the composite's.
func (c *adaptiveCounter) cellDec() bool {
	n := c.cell.Add(-1)
	if n > 0 {
		return false
	}
	if n < 0 {
		panic("counter: adaptive cell went negative (unbalanced decrement)")
	}
	return c.cellDrained()
}

// cellDrained is the zero routing for the operation that drained the
// cell. Installs only happen under a pin, which holds the cell
// non-zero, so the drainer's read of the anchor pointer is final: with
// no in-counter the cell's zero is the composite's; with one, the drain
// discharges the anchor and propagates the in-counter's report. (The
// anchor state is not released to the pool: IsZero keeps reading it.)
func (c *adaptiveCounter) cellDrained() bool {
	a := c.anchor.Load()
	return a == nil || a.Decrement()
}

// routeIncrement performs a post-promotion Increment for a state whose
// obligation still lives in the cell: the two child obligations enter
// the in-counter (Attach + a normal Increment, net +2), and only then
// is the caller's cell obligation discharged — so the composite never
// dips, and the anchor (not yet discharged, because the cell was
// non-zero throughout) keeps the in-counter's zero unreachable.
func (c *adaptiveCounter) routeIncrement(dc *dynCounter, g *rng.Xoshiro256ss) (State, State) {
	a := dc.attach()
	l, r := a.Increment(g)
	a.Release()
	if c.cellDec() {
		// l and r hold two live in-counter dependencies, so even the
		// anchor discharge cannot have zeroed it.
		panic("counter: adaptive counter drained during an increment")
	}
	return l, r
}

// adFAState is the capability every vertex whose obligation lives in
// the cell shares, exactly like the fetch-and-add baseline's state (and
// like it, deliberately not a Releaser). Operations re-check the mode
// on every attempt, so a state created before a promotion participates
// in it the first time it acts afterwards.
type adFAState struct{ c *adaptiveCounter }

// Increment implements State.
func (s *adFAState) Increment(g *rng.Xoshiro256ss) (State, State) {
	return s.IncrementHomed(g, nil, nil)
}

// IncrementHomed implements HomedState: while the counter is buffering
// and a worker Home is in scope, the +1 lands in the worker's delta
// slot instead of shared memory (see batch.go). Otherwise the cell
// takes an optimistic load+CAS instead of an unconditional
// fetch-and-add: uncontended it costs the same one atomic RMW, and a
// failure is precisely the contention signal promotion feeds on.
func (s *adFAState) IncrementHomed(g *rng.Xoshiro256ss, h *Home, tag any) (State, State) {
	c := s.c
	chaosPromote(c) // fault seam: no-op unless built with -tags chaostest
	if h != nil && c.buffering.Load() {
		h.buffer(c, 1, tag) // an increment cannot report zero
		return s, s
	}
	for {
		if a := c.anchor.Load(); a != nil {
			return c.routeIncrement(a.owner, g)
		}
		v := c.cell.Load()
		if c.cell.CompareAndSwap(v, v+1) {
			return s, s
		}
		c.noteMiss()
	}
}

// Decrement implements State.
func (s *adFAState) Decrement() bool { return s.DecrementHomed(nil, nil) }

// DecrementHomed implements HomedState; see IncrementHomed.
func (s *adFAState) DecrementHomed(h *Home, tag any) bool {
	c := s.c
	if h != nil && c.buffering.Load() {
		return h.buffer(c, -1, tag)
	}
	for {
		if c.anchor.Load() != nil {
			return c.cellDec()
		}
		v := c.cell.Load()
		if v <= 0 {
			panic("counter: adaptive cell went negative (unbalanced decrement)")
		}
		if c.cell.CompareAndSwap(v, v-1) {
			return v == 1 && c.cellDrained()
		}
		c.noteMiss()
	}
}
