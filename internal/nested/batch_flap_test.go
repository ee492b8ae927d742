package nested

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counter"
)

// TestBatchedFlapBothPolicies drives the batched counter frontend
// through the full runtime, alternating storm phases (wide fan-in
// finish blocks, threshold flushes) with calm phases (a long-lived
// outer block whose only traffic is a slow trickle of nested quiescent
// sub-blocks, so every worker boundary flush is an undersubscribed
// window and the outer counter's calm streak grows until it demotes).
// A per-block leaf counter is the early-zero detector: Finish
// returning before every leaf ran means a buffered decrement was
// double-counted or a zero report fired with deltas still pending.
//
// Re-promotion after demotion needs genuine CAS misses and so cannot
// be forced portably from the public API on a serializing host; the
// counter-level flap stress (batch_test.go) owns that leg of the
// cycle.
//
// The name dates from the scheduler's two stealing protocols; the body
// runs as the "chase-lev" subtest, the protocol that remains.
func TestBatchedFlapBothPolicies(t *testing.T) {
	t.Run("chase-lev", batchedFlapThroughRuntime)
}

func batchedFlapThroughRuntime(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	stats := new(counter.AdaptiveStats)
	rt := New(Config{
		Workers: 4,
		Seed:    7,
		Algorithm: counter.Adaptive{
			Eager:     true,
			Batch:     4,
			Threshold: 100,
			Stats:     stats,
		},
	})
	defer rt.Close()

	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-done:
		case <-time.After(4 * time.Minute):
			panic("batched flap stress wedged: a zero report never arrived")
		}
	}()

	for r := 0; r < rounds; r++ {
		// Storm: wide blocks, every increment batched, threshold
		// flushes dominating. Finish is a tail operation, so the
		// two blocks chain through FinishThen continuations.
		var ran atomic.Int64
		const leaves = 512
		storm := func(fc *Ctx) {
			for i := 0; i < leaves; i++ {
				fc.Async(func(*Ctx) { ran.Add(1) })
			}
		}
		err := rt.Run(func(c *Ctx) {
			c.FinishThen(storm, func(c *Ctx) {
				c.Finish(storm)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got != 2*leaves {
			t.Fatalf("round %d storm: Finish returned with %d/%d leaves run (early zero)",
				r, got, 2*leaves)
		}

		// Calm: one outer block alive across many fully-quiescent
		// nested sub-blocks (chained as continuations — Finish is
		// tail-only). Each inner block drains the runtime, so the
		// worker boundary flushes the outer slot with far fewer
		// units than the batch — undersubscribed, retry-free
		// windows that build the outer phase's calm streak.
		var calmRan atomic.Int64
		const waves = 16
		var wave func(oc *Ctx, w int)
		wave = func(oc *Ctx, w int) {
			if w == 0 {
				return
			}
			oc.Async(func(*Ctx) { calmRan.Add(1) })
			oc.FinishThen(func(ic *Ctx) {
				ic.Async(func(*Ctx) { calmRan.Add(1) })
			}, func(oc *Ctx) {
				wave(oc, w-1)
			})
		}
		err = rt.Run(func(c *Ctx) {
			c.Finish(func(oc *Ctx) { wave(oc, waves) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := calmRan.Load(); got != 2*waves {
			t.Fatalf("round %d calm: Finish returned with %d/%d leaves run (early zero)",
				r, got, 2*waves)
		}
	}

	if got := stats.Promotions.Load(); got == 0 {
		t.Fatal("eager spec produced no promotions")
	}
	if got := stats.Demotions.Load(); got == 0 {
		t.Fatal("calm waves produced no demotions: the decay path never fired in the runtime")
	}
	t.Logf("promotions=%d demotions=%d", stats.Promotions.Load(), stats.Demotions.Load())
}
