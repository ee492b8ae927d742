package counter

// This file implements the batched frontend of the adaptive counter
// (spec `adaptive:K:batch`, DESIGN.md §6): while a counter is in
// buffering mode, each worker accumulates that counter's increments and
// decrements in a private, cache-padded delta slot and settles the net
// delta against the counter's cell in one weighted RMW — when −delta
// crosses the batch threshold, at worker idle boundaries, or before
// park/retire (the scheduler's flush hooks). A fan-in storm of B
// operations thus costs O(B/batch) shared RMWs instead of O(B).
//
// Soundness rests on one rule: a slot holds an ANCHOR — anchor units
// already added to the cell, before the deltas they cover —
// maintaining the per-slot invariant
//
//	delta ≤ anchor
//
// grown in batch-sized chunks when buffered increments would exceed
// it, and released only by the flush (folded into the weighted
// update: a flush applies delta − anchor, always ≤ 0). The cell's
// ledger then reads
//
//	cell = live obligations + Σ_slots (anchor_i − delta_i)
//
// with every term non-negative: a buffered decrement's obligation
// stays in the cell until its flush applies, and a buffered increment
// never outruns its slot's pre-paid units. So no flush can take the
// cell negative — even when a stolen subtree puts the decrements on a
// different worker than the (still buffered) increments that created
// them — the cell cannot read zero while any obligation is live or any
// slot is unsettled, and whoever operates on a live state finds the
// cell ≥ 1 (what makes acquiring a chunk sound). The zero report comes
// from exactly one place: the direct decrement or flush that takes the
// cell to zero. The mode flag appears nowhere in this argument.

import (
	"sync/atomic"

	"repro/internal/rng"
)

// demoteCalm is the demotion streak: a buffering counter drops back to
// direct cell operations after this many consecutive calm flushes. A
// flush is one observation window, and it is calm only if it was both
// retry-free (no CAS contention on the cell) and undersubscribed (a
// boundary or staleness flush whose traffic never reached the batch
// threshold — full windows mean the tier is absorbing a storm, and
// storms must not demote no matter how cleanly their flushes land).
// Any contended update resets the streak — the windowed decay of the
// promotion signal. Demotion also resets the counter's cumulative
// miss count, so re-promotion requires a fresh burst of K collisions.
const demoteCalm = 8

// HomedState is implemented by counter states that can buffer their
// operations in a worker-local Home. The sp-dag runtime probes for it
// on the Spawn/Signal hot path (like Releaser, per State object — the
// adaptive counter's shared state is homed, no other algorithm's is)
// and passes the finish vertex as the opaque tag: a buffered
// decrement's zero report surfaces later, from a flush, and the tag is
// how the runtime knows which vertex became ready.
type HomedState interface {
	State
	// IncrementHomed is Increment with a worker Home in scope (h may
	// be nil: fall back to the unbuffered path).
	IncrementHomed(g *rng.Xoshiro256ss, h *Home, tag any) (State, State)
	// DecrementHomed is Decrement with a worker Home in scope. A true
	// return is the counter's exactly-once zero report, same as
	// Decrement; buffered decrements usually return false and deliver
	// the zero through a later flush's ready callback instead.
	DecrementHomed(h *Home, tag any) bool
}

// Home is one worker's set of pending delta slots, owned by exactly
// one executing goroutine (the spdag.ExecContext single-owner
// discipline, like the vertex freelist). The ledger counters are
// atomics only because the scheduler's Stats aggregation reads them
// from other goroutines; all slot state is owner-only.
type Home struct {
	active []*slot
	free   []*slot

	flushes   atomic.Uint64 // shared RMWs issued: anchor acquires + applied flushes
	localIncs atomic.Uint64 // logical units buffered locally (each avoided a shared RMW)
}

// NewHome creates an empty Home.
func NewHome() *Home { return &Home{} }

// Active reports whether any slot has pending state. It is the
// cheap guard the scheduler's idle-boundary flush hook checks every
// round.
func (h *Home) Active() bool { return h != nil && len(h.active) > 0 }

// Flushes returns the number of shared RMWs the batched tier has
// issued (slot-anchor acquisitions plus weighted flush updates) — the
// "backend calls" side of the coalescing ledger.
func (h *Home) Flushes() uint64 { return h.flushes.Load() }

// LocalIncs returns the number of logical counter units buffered
// locally — the "logical writes" side of the coalescing ledger. Each
// buffered unit is one shared RMW the unbatched tier would have paid.
func (h *Home) LocalIncs() uint64 { return h.localIncs.Load() }

// slot is one counter's pending delta on this worker. It is padded to
// a cache line so neighboring slots (and the Home header) never share
// one: the owner rewrites delta on every buffered op while other lines
// of the slice stay read-mostly.
type slot struct {
	c     *adaptiveCounter
	delta int64
	units uint64 // traffic absorbed since activation (see flushSlot)
	anch  uint64 // units pre-paid into the cell; invariant delta ≤ anch
	tag   any    // the finish vertex the zero report belongs to
	_     [16]byte
}

// buffer adds the unit operation d (±1) to this worker's pending delta
// for c. A positive delta is never allowed to exceed the slot's anchor
// — when it would, the slot pre-pays another chunk: batch units added
// to the cell in ONE weighted RMW, cover for the next batch of buffered
// increments, so the common window costs exactly two shared RMWs — the
// chunk and the flush — regardless of how many units it absorbs. It is
// sound because the caller operates on a live state, so the cell is
// non-zero. Contention on the acquire resets the calm streak; a clean
// acquire is not itself a calm observation (activations open every
// quiet spawn cycle — counting them would double the streak's rate).
// The decrement side flushes in-line when the delta reaches −batch. The
// return value is the counter's zero report — possible only from a
// decrement-triggered threshold flush, and then the caller is the
// vertex whose Signal is in progress, so it handles the report exactly
// like an unbuffered Decrement's.
func (h *Home) buffer(c *adaptiveCounter, d int64, tag any) bool {
	s := h.slotFor(c)
	s.delta += d
	s.tag = tag
	s.units++
	h.localIncs.Add(1)
	if s.delta > int64(s.anch) {
		_, retries := c.cellAdd(int64(c.batch))
		h.flushes.Add(1)
		s.anch += c.batch
		if retries > 0 {
			c.calm.Store(0)
		}
	} else if -s.delta >= int64(c.batch) {
		zero, _ := h.flushSlot(s)
		return zero
	}
	return false
}

// slotFor finds the active slot for c, activating an empty one if none
// exists (its first buffered increment acquires the first chunk). The
// scan is linear: a worker touches very few distinct buffering counters
// between flush boundaries.
func (h *Home) slotFor(c *adaptiveCounter) *slot {
	for _, s := range h.active {
		if s.c == c {
			return s
		}
	}
	var s *slot
	if n := len(h.free); n > 0 {
		s, h.free = h.free[n-1], h.free[:n-1]
	} else {
		s = new(slot)
	}
	*s = slot{c: c}
	h.active = append(h.active, s)
	return s
}

// FlushAll drains every active slot, invoking ready(tag) for each
// flush whose weighted update zeroed its counter. The scheduler calls
// it at worker idle boundaries, before parking, and on a staleness cap
// (so a busy worker cannot delay a zero report unboundedly); ready
// must be non-nil — dropping a zero report would strand a finish
// vertex forever.
func (h *Home) FlushAll(ready func(tag any)) {
	for len(h.active) > 0 {
		s := h.active[len(h.active)-1]
		zero, tag := h.flushSlot(s)
		if zero {
			if ready == nil {
				panic("counter: Home flush dropped a zero report (nil ready callback)")
			}
			ready(tag)
		}
	}
}

// flushSlot deactivates s and settles its pending delta d against the
// cell as one weighted update of d − anchor, releasing the anchor units
// with it. The delta ≤ anchor invariant makes the update a decrease or
// a no-op (d == anchor costs zero RMWs — the delta folded entirely into
// pre-paid units). The calm signal is judged on the slot's absorbed
// TRAFFIC (units), not its net delta: a storm of interleaved increments
// and decrements cancels to a tiny delta — the coalescing win itself —
// and must still read as hot, or staleness-cap flushes during a storm
// would build a bogus calm streak and demote mid-storm.
func (h *Home) flushSlot(s *slot) (zero bool, tag any) {
	c, tag := s.c, s.tag
	full := s.units >= c.batch
	k := s.delta - int64(s.anch)
	for i, as := range h.active {
		if as == s {
			last := len(h.active) - 1
			h.active[i] = h.active[last]
			h.active[last] = nil
			h.active = h.active[:last]
			break
		}
	}
	s.c, s.tag = nil, nil
	h.free = append(h.free, s)

	if k > 0 {
		panic("counter: batched slot delta exceeds its anchor (buffer invariant broken)")
	}
	retries := 0
	if k != 0 {
		var n int64
		n, retries = c.cellAdd(k)
		h.flushes.Add(1)
		zero = n == 0
	}
	c.observeFlush(retries, full)
	return zero, tag
}

// observeFlush feeds one flush's contention observation into the
// demotion signal: a retry-free under-threshold window extends the
// calm streak, and the window that completes a streak of demoteCalm
// demotes; a contended update or a full window (batch-or-more units
// absorbed) resets it. Full windows reset rather than merely not
// counting because they are direct evidence of storm-rate traffic — a
// counter absorbing a storm must not demote between bursts on the
// strength of a few quiet boundary windows that happened to interleave.
func (c *adaptiveCounter) observeFlush(retries int, full bool) {
	if retries > 0 || full {
		c.calm.Store(0)
	} else if c.calm.Add(1) >= demoteCalm {
		c.demote()
	}
}

// demote clears the buffering flag of a calm counter: operations go
// back to the cell directly, slots still open on other workers settle
// at their next flush, and re-promotion needs a fresh contention burst.
func (c *adaptiveCounter) demote() {
	if !c.buffering.CompareAndSwap(true, false) {
		return
	}
	c.misses.Store(0)
	if c.stats != nil {
		c.stats.Demotions.Add(1)
	}
}
