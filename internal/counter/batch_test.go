package counter

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// eagerBatched builds the batched-frontend test subject: an eagerly
// promoted counter (initial 1) with the given batch threshold.
func eagerBatched(t *testing.T, batch uint64) (*adaptiveCounter, *AdaptiveStats) {
	t.Helper()
	alg := Adaptive{Eager: true, Batch: batch, Threshold: 1, Stats: new(AdaptiveStats)}
	c := alg.New(1).(*adaptiveCounter)
	if !c.Promoted() {
		t.Fatal("eager counter not promoted at creation")
	}
	return c, alg.Stats
}

// TestHomeLedgerAndAnchorFolding walks the ledger through one worker's
// buffered lifecycle and pins the exact RMW accounting: one anchor
// chunk when buffered increments first need cover, one weighted update
// per flush, and the fold case — a flush whose delta exactly equals its
// anchor — costing zero RMWs.
func TestHomeLedgerAndAnchorFolding(t *testing.T) {
	c, _ := eagerBatched(t, 8)
	h := NewHome()
	g := rng.NewXoshiro(1)

	root := c.RootState().(HomedState)
	l, r := root.IncrementHomed(g, h, "fin")
	// The increment buffered +1 behind a freshly acquired anchor chunk
	// (8 units in one RMW).
	if got := h.Flushes(); got != 1 {
		t.Fatalf("flushes after homed increment = %d, want 1 (the anchor chunk)", got)
	}
	if got := h.LocalIncs(); got != 1 {
		t.Fatalf("localIncs after homed increment = %d, want 1", got)
	}
	if !h.Active() {
		t.Fatal("home inactive with a pending delta")
	}
	if got := c.cell.Load(); got != 9 {
		t.Fatalf("cell = %d, want 9 (one obligation + the 8-unit chunk)", got)
	}

	if l.(HomedState).DecrementHomed(h, "fin") {
		t.Fatal("buffered decrement reported zero with live obligations")
	}
	if got := h.LocalIncs(); got != 2 {
		t.Fatalf("localIncs after buffered decrement = %d, want 2", got)
	}

	// Boundary flush with net delta 0 against an 8-unit anchor: one
	// weighted update returns the 8 unused units.
	h.FlushAll(func(any) { t.Fatal("flush reported zero with a live obligation") })
	if got := h.Flushes(); got != 2 {
		t.Fatalf("flushes after boundary flush = %d, want 2 (chunk + flush)", got)
	}
	if h.Active() {
		t.Fatal("home active after FlushAll")
	}
	if got := c.cell.Load(); got != 1 {
		t.Fatalf("cell = %d after settling, want 1 (the one live obligation)", got)
	}

	// The final obligation: a buffered decrement needs no anchor, and the
	// boundary flush that settles it drains the counter; the zero arrives
	// via the ready callback, tagged with the finish vertex.
	if r.(HomedState).DecrementHomed(h, "fin2") {
		t.Fatal("buffered decrement reported zero before its flush")
	}
	var readyTag any
	var readyCalls int
	h.FlushAll(func(tag any) { readyTag = tag; readyCalls++ })
	if readyCalls != 1 {
		t.Fatalf("ready callbacks = %d, want 1", readyCalls)
	}
	if readyTag != "fin2" {
		t.Fatalf("ready tag = %v, want fin2", readyTag)
	}
	if !c.IsZero() {
		t.Fatal("counter not zero after drain")
	}
	if got := h.Flushes(); got != 3 {
		t.Fatalf("flushes after drain = %d, want 3", got)
	}
	if got := h.LocalIncs(); got != 3 {
		t.Fatalf("localIncs after drain = %d, want 3", got)
	}

	// The fold case, on a fresh counter with batch=2: a +2 delta
	// exactly consumes the 2-unit anchor chunk, so its flush costs zero
	// RMWs.
	c2, _ := eagerBatched(t, 2)
	h2 := NewHome()
	l2, r2 := c2.RootState().(HomedState).IncrementHomed(g, h2, nil)
	l2, m2 := l2.(HomedState).IncrementHomed(g, h2, nil)
	if got := h2.Flushes(); got != 1 {
		t.Fatalf("fold setup flushes = %d, want 1", got)
	}
	h2.FlushAll(func(any) { t.Fatal("early zero") })
	if got := h2.Flushes(); got != 1 {
		t.Fatalf("flushes after delta==anchor flush = %d, want 1 (anchor folding)", got)
	}
	zeros := 0
	for _, s := range []State{l2, m2, r2} { // the second −1 hits the threshold inline
		if s.(HomedState).DecrementHomed(h2, nil) {
			zeros++
		}
	}
	h2.FlushAll(func(any) { zeros++ })
	if zeros != 1 {
		t.Fatalf("fold-case zero reports = %d, want 1", zeros)
	}
	if !c2.IsZero() {
		t.Fatal("fold-case counter not zero after drain")
	}
}

// TestHomeThresholdFlush pins the two in-op shared-RMW triggers: on
// the increment side the anchor chunk covers a full batch of buffered
// increments (no inline flush — the slot stays active with delta up to
// the chunk), and on the decrement side the delta reaching −batch
// flushes inline, without waiting for a boundary, delivering the zero
// report through the in-progress Signal when the flush drains the
// counter.
func TestHomeThresholdFlush(t *testing.T) {
	c, _ := eagerBatched(t, 4)
	h := NewHome()
	g := rng.NewXoshiro(1)

	live := []State{c.RootState()}
	for i := 0; i < 4; i++ { // +1 each: delta hits 4, the chunk's cover
		nl, nr := live[len(live)-1].(HomedState).IncrementHomed(g, h, nil)
		live[len(live)-1] = nl
		live = append(live, nr)
	}
	// One anchor chunk covers all four buffered increments; no flush yet.
	if got := h.Flushes(); got != 1 {
		t.Fatalf("flushes after a chunk's worth of increments = %d, want 1", got)
	}
	if !h.Active() {
		t.Fatal("slot inactive with buffered increments")
	}
	// Boundary flush with delta == anchor: the fold, zero RMWs.
	h.FlushAll(func(any) { t.Fatal("early zero") })
	if got := h.Flushes(); got != 1 {
		t.Fatalf("flushes after folding boundary flush = %d, want 1", got)
	}

	// Five live obligations. Settle one at a boundary, then drain the
	// other four: the fourth buffered decrement reaches −batch and
	// flushes inline — the zero comes back through DecrementHomed itself.
	dec := func() bool {
		s := live[len(live)-1].(HomedState)
		live = live[:len(live)-1]
		return s.DecrementHomed(h, "fin")
	}
	if dec() {
		t.Fatal("early zero")
	}
	h.FlushAll(func(any) { t.Fatal("early zero") })
	zeros := 0
	for len(live) > 0 {
		if dec() {
			zeros++
		}
	}
	if h.Active() {
		t.Fatal("slot still active after decrement-threshold flush")
	}
	if got := h.Flushes(); got != 3 {
		t.Fatalf("flushes after drain = %d, want 3 (chunk + boundary settle + threshold flush)", got)
	}
	h.FlushAll(func(any) { zeros++ })
	if zeros != 1 {
		t.Fatalf("zero reports = %d, want exactly 1", zeros)
	}
	if !c.IsZero() {
		t.Fatal("counter not zero after drain")
	}
}

// TestDemotionAfterCalmStreakAndRePromotion drives the full lifecycle
// single-threaded: eager promotion → a full window and a contended
// window each resetting the streak → demoteCalm quiet windows demoting
// → direct cell operation → re-promotion only after a fresh K misses →
// final drain with exactly one zero report.
func TestDemotionAfterCalmStreakAndRePromotion(t *testing.T) {
	const batch, contention = 4, 3
	alg := Adaptive{Eager: true, Batch: batch, Contention: contention, Threshold: 1, Stats: new(AdaptiveStats)}
	c, stats := alg.New(1).(*adaptiveCounter), alg.Stats
	h := NewHome()
	g := rng.NewXoshiro(1)

	live := []State{c.RootState()}
	// window buffers n increments on one slot and flushes it.
	window := func(n int) {
		for i := 0; i < n; i++ {
			nl, nr := live[len(live)-1].(HomedState).IncrementHomed(g, h, nil)
			live[len(live)-1] = nl
			live = append(live, nr)
		}
		h.FlushAll(func(any) { t.Fatal("early zero") })
	}
	quiet := func(n int) {
		for i := 0; i < n; i++ {
			window(1)
		}
	}

	quiet(demoteCalm - 1)
	window(batch) // a full window: storm-rate traffic resets the streak
	quiet(demoteCalm - 1)
	c.observeFlush(1, false) // so does a contended one
	quiet(demoteCalm - 1)
	if !c.Promoted() || stats.Demotions.Load() != 0 {
		t.Fatal("demoted without a complete calm streak")
	}
	quiet(1)
	if c.Promoted() {
		t.Fatalf("counter not demoted after %d calm boundary flushes", demoteCalm)
	}
	if got := stats.Demotions.Load(); got != 1 {
		t.Fatalf("stats.Demotions = %d, want 1", got)
	}

	// Demoted: operations go straight to the cell, Home or not.
	cellBefore, bufferedBefore := c.cell.Load(), h.LocalIncs()
	window(1)
	if got := c.cell.Load(); got != cellBefore+1 {
		t.Fatalf("demoted increment did not land in the cell (%d -> %d)", cellBefore, got)
	}
	if got := h.LocalIncs(); got != bufferedBefore {
		t.Fatalf("demoted increment was buffered (localIncs %d -> %d)", bufferedBefore, got)
	}

	// Re-promotion needs a fresh burst of K misses: the demotion reset
	// whatever the counter had accumulated.
	if c.Misses() != 0 {
		t.Fatalf("misses = %d after demotion, want 0", c.Misses())
	}
	for i := 0; i < contention-1; i++ {
		c.noteMiss()
	}
	if c.Promoted() {
		t.Fatalf("re-promoted after %d misses, want %d", contention-1, contention)
	}
	c.noteMiss()
	if !c.Promoted() {
		t.Fatal("not re-promoted by a fresh burst of K misses")
	}
	if got := stats.Promotions.Load(); got != 2 {
		t.Fatalf("stats.Promotions = %d, want 2 (eager + re-promotion)", got)
	}
	quiet(demoteCalm - 1) // and a fresh calm streak to demote again
	if !c.Promoted() {
		t.Fatal("re-promoted counter demoted on a stale calm streak")
	}

	zeros := 0
	for len(live) > 0 {
		s := live[len(live)-1].(HomedState)
		live = live[:len(live)-1]
		if s.DecrementHomed(h, "fin") {
			zeros++
		}
	}
	h.FlushAll(func(any) { zeros++ })
	if zeros != 1 {
		t.Fatalf("zero reports = %d, want exactly 1", zeros)
	}
	if !c.IsZero() {
		t.Fatal("counter not zero after full promote→demote→re-promote drain")
	}
}

// TestAdaptiveFlapStressShadow is the demotion/re-promotion flap
// stress (run it under -race): a worker pool hammers one batched
// counter through alternating storm and quiet phases while the
// lifecycle flaps promote→demote→re-promote, with a shadow live-count
// — retired strictly before each real operation — catching any early
// zero, and a watchdog catching a lost zero report. Workers own one
// Home each, mirroring the scheduler's per-worker slots.
func TestAdaptiveFlapStressShadow(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 12
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(4 * time.Minute):
			panic("counter: flap stress wedged (lost zero report?)")
		}
	}()
	defer close(done)

	const workers = 4
	for it := 0; it < iters; it++ {
		alg := Adaptive{Eager: true, Batch: 4, Contention: 1, Threshold: 1, Stats: new(AdaptiveStats)}
		c := alg.New(1).(*adaptiveCounter)
		var shadow atomic.Int64
		shadow.Store(1)
		var zeros, earlyZeros atomic.Int32
		onZero := func() {
			zeros.Add(1)
			if shadow.Load() != 0 {
				earlyZeros.Add(1)
			}
		}

		// The shared work pool: a stack of live states, each entry one
		// undischarged obligation.
		var mu sync.Mutex
		var stack []State
		stack = append(stack, c.RootState())
		pop := func() (State, bool) {
			mu.Lock()
			defer mu.Unlock()
			if len(stack) == 0 {
				return nil, false
			}
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return s, true
		}
		push := func(l, r State) {
			mu.Lock()
			stack = append(stack, l, r)
			mu.Unlock()
		}

		// The flapper: force re-promotion whenever the counter demotes,
		// keeping the lifecycle churning against the operation storm.
		stop := make(chan struct{})
		var flapWG sync.WaitGroup
		flapWG.Add(1)
		go func() {
			defer flapWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !c.Promoted() {
					c.promote()
				}
			}
		}()

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := NewHome()
				g := rng.NewXoshiro(uint64(it*workers + w + 1))
				budget := 400 // net obligations this worker may create
				for {
					s, ok := pop()
					if !ok {
						break
					}
					hs := s.(HomedState)
					r := g.Next()
					if budget > 0 && r%4 != 0 { // grow fast, then drain
						budget--
						shadow.Add(1)
						l, rr := hs.IncrementHomed(g, h, nil)
						push(l, rr)
					} else {
						shadow.Add(-1)
						if hs.DecrementHomed(h, w) {
							onZero()
						}
					}
					if r%64 == 0 {
						// Quiet boundary: flush everything, building calm
						// streaks that trigger demotions mid-run.
						h.FlushAll(func(any) { onZero() })
					}
				}
				h.FlushAll(func(any) { onZero() })
			}(w)
		}
		wg.Wait()
		close(stop)
		flapWG.Wait()

		if z := zeros.Load(); z != 1 {
			t.Fatalf("iter %d: %d zero reports, want 1 (promoted=%v)", it, z, c.Promoted())
		}
		if earlyZeros.Load() != 0 {
			t.Fatalf("iter %d: counter reported zero with live obligations outstanding", it)
		}
		if shadow.Load() != 0 {
			t.Fatalf("iter %d: shadow count %d after drain", it, shadow.Load())
		}
		if !c.IsZero() {
			t.Fatalf("iter %d: not zero after drain", it)
		}
	}
}
