package counter

import (
	"testing"

	"repro/internal/rng"
)

// slack sums anchor − delta over c's open slots in homes — the cell
// units pre-paid or not yet settled — failing on a slot that broke the
// delta ≤ anchor rule.
func slack(t *testing.T, c *adaptiveCounter, homes []*Home) int64 {
	t.Helper()
	var sum int64
	for w, h := range homes {
		for _, s := range h.active {
			if s.c != c {
				continue
			}
			if s.delta > int64(s.anch) {
				t.Fatalf("worker %d: slot delta %d exceeds its anchor %d", w, s.delta, s.anch)
			}
			sum += int64(s.anch) - s.delta
		}
	}
	return sum
}

// TestLedgerSeededSchedules checks the batched counter's one invariant
//
//	cell == live obligations + Σ_slots (anchor_i − delta_i)
//
// after every step of seeded random schedules. One goroutine plays W
// workers, each with its own Home, and draws the next action from the
// seed: an increment or decrement by some worker (or from an inline
// context with no Home), a worker's boundary flush, handing a live
// state to another worker (the stolen-subtree split: its decrement then
// lands in a different slot than the increment that created it), or a
// flip of the mode flag in either direction — mid-window, and after the
// drain. Alongside the ledger it asserts that the counter never reads
// zero while a shadow obligation is live, and that exactly one zero
// report is delivered, by return value or by ready(tag).
//
// Op-granular schedules are exhaustive enough here because in batched
// mode every operation performs at most one shared RMW on the cell (a
// direct CAS, one anchor chunk, or one flush) and everything else it
// touches is owner-only slot state or the advisory flag: any concurrent
// execution is equivalent to the sequential one that orders operations
// by that RMW, with each operation's flag read landing before or after
// the flips — which is what drawing flips between operations produces.
// The unbatched tree promotion (pin → install → release against
// routeIncrement) is multi-step and is not covered by this argument.
func TestLedgerSeededSchedules(t *testing.T) {
	seeds := uint64(10000)
	if testing.Short() {
		seeds = 1000
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		ledgerSchedule(t, seed)
	}
}

func ledgerSchedule(t *testing.T, seed uint64) {
	defer func() {
		if t.Failed() {
			t.Logf("failing seed: %d", seed)
		}
	}()
	g := rng.NewXoshiro(seed)
	workers := []int{2, 4, 8}[g.Uint64n(3)]
	alg := Adaptive{
		Eager:      g.Uint64n(2) == 0,
		Batch:      2 + g.Uint64n(7),
		Contention: 1 << 40, // single-threaded: flips come from the schedule and the calm streak
		Stats:      new(AdaptiveStats),
	}
	c := alg.New(1).(*adaptiveCounter)
	st := c.RootState().(HomedState)
	tag := new(int)

	homes := make([]*Home, workers)
	for w := range homes {
		homes[w] = NewHome()
	}
	held := make([]int, workers) // live states each worker would operate on
	held[0] = 1
	live, zeros, step := 1, 0, 0
	ready := func(got any) {
		if got != tag {
			t.Errorf("seed %d step %d: ready(%v), want the counter's tag", seed, step, got)
		}
		zeros++
	}
	check := func(what string) {
		if got, want := c.cell.Load(), int64(live)+slack(t, c, homes); got != want {
			t.Fatalf("seed %d step %d (%s): cell = %d, want %d (live %d + slack %d)",
				seed, step, what, got, want, live, want-int64(live))
		}
		if live > 0 && (c.IsZero() || zeros != 0) {
			t.Fatalf("seed %d step %d (%s): zero (IsZero=%v, reports=%d) with %d obligations live",
				seed, step, what, c.IsZero(), zeros, live)
		}
	}
	// home picks the Home worker w operates through: usually its own,
	// sometimes none (an inline context).
	home := func(w int) *Home {
		if g.Uint64n(8) == 0 {
			return nil
		}
		return homes[w]
	}

	budget := 1 + int(g.Uint64n(96)) // increments before the schedule turns to draining
	for ; live > 0; step++ {
		w := int(g.Uint64n(uint64(workers)))
		switch r := g.Uint64n(16); {
		case r < 6 && budget > 0 && held[w] > 0:
			budget--
			st.IncrementHomed(g, home(w), tag)
			held[w]++
			live++
			check("increment")
		case r < 10 && held[w] > 0:
			held[w]--
			live--
			if st.DecrementHomed(home(w), tag) {
				zeros++
			}
			check("decrement")
		case r < 12:
			homes[w].FlushAll(ready)
			check("flush")
		case r < 14 && held[w] > 0:
			to := int(g.Uint64n(uint64(workers)))
			held[w]--
			held[to]++
			check("steal")
		case r == 14:
			c.promote()
			check("promote")
		default:
			c.demote()
			check("demote")
		}
	}
	// Every obligation is discharged; whatever is still buffered settles
	// at the workers' next boundaries, in seeded order, with the mode
	// still flipping.
	for _, w := range permute(g, workers) {
		if g.Uint64n(2) == 0 {
			c.promote()
		} else {
			c.demote()
		}
		homes[w].FlushAll(ready)
		check("final flush")
		step++
	}
	if zeros != 1 {
		t.Fatalf("seed %d: %d zero reports, want exactly 1", seed, zeros)
	}
	if !c.IsZero() || c.cell.Load() != 0 {
		t.Fatalf("seed %d: not zero after the drain (cell = %d)", seed, c.cell.Load())
	}
}

// permute returns a seeded permutation of 0..n-1.
func permute(g *rng.Xoshiro256ss, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := int(g.Uint64n(uint64(i + 1)))
		p[i], p[j] = p[j], i
	}
	return p
}
