package nested

import (
	"testing"

	"repro/internal/counter"
)

// TestAsyncSteadyStateAllocs asserts the end-to-end hot-path budgets at
// the frontend level, on two bodies run through a live runtime:
//
//   - asyncs: steady-state Async spawn-signal cycles under one finish
//     allocate at most one object per async;
//   - finishes: a tree of nested Finish blocks (the indegree-2 shape)
//     allocates nothing per finish block. Each block's counter is the
//     spent counter of a recycled finish vertex, renewed in place.
//
// Task functions are built once (the per-call closure a user writes is
// their own allocation, not the runtime's); everything the runtime
// itself needs — vertices, finish counters, counter states, decrement
// pairs, task contexts, run machinery — comes from pools.
//
// The asyncs budget holds for every row: the contention-adaptive
// counter's uncontended cell phase must allocate nothing per spawn
// (the "promotion heuristic must be free when idle" requirement), and
// the in-counter pools its per-spawn states and pairs. The finishes
// budget holds for the rows whose counters can be reused, and the
// other two are exempt: an eager counter promotes at birth, and a
// promoted counter is never reused (DESIGN.md §5), so every block
// allocates its counter; a dyn counter is a SNZI tree that New
// allocates per block.
func TestAsyncSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behaviour")
	}
	if !poolCtx {
		t.Skip("nestedchecks disables Ctx pooling by design")
	}
	algos := []struct {
		name        string
		alg         counter.Algorithm // nil = the runtime default (adaptive)
		reuseFinish bool              // finish counters are renewed, not allocated
	}{
		{"default-adaptive", nil, true},
		{"adaptive:32:16", counter.Adaptive{Contention: 32, Batch: 16, Threshold: 25, Stats: new(counter.AdaptiveStats)}, true},
		// Eager promotion forces every run through the batched frontend:
		// steady-state buffered increments must ride pooled delta slots
		// (the Home free list) and allocate nothing per async beyond the
		// shared budget; the per-run promotion machinery is fixed
		// overhead, not per-op.
		{"adaptive:0:16-eager-batched", counter.Adaptive{Eager: true, Batch: 16, Threshold: 25, Stats: new(counter.AdaptiveStats)}, false},
		{"dyn", counter.Dynamic{Threshold: 25}, false},
	}

	const asyncs = 2048
	leaf := func(*Ctx) {}
	asyncBody := func(c *Ctx) {
		for range asyncs {
			c.Async(leaf)
		}
	}
	// A finish tree over 2^10 leaves, built as a table like the
	// benchmark's indegree-2 kernel: 1023 finish blocks per run.
	fork, finishes := Task(leaf), 0
	for m := 1 << 10; m >= 2; m /= 2 {
		child := fork
		body := func(c *Ctx) { c.Async(child); c.Async(child) }
		fork = func(c *Ctx) { c.Finish(body) }
		finishes = 1 + 2*finishes
	}
	bodies := []struct {
		name   string
		body   Task
		ops    int // asyncs or finish blocks per run
		budget float64
		finish bool // the budget is per finish block
	}{
		{"asyncs", asyncBody, asyncs, 1, false},
		{"finishes", fork, finishes, 0, true},
	}

	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			for _, b := range bodies {
				t.Run(b.name, func(t *testing.T) {
					rt := New(Config{Workers: 1, Seed: 42, Algorithm: a.alg})
					defer rt.Close()

					// Warm every pool (and the scheduler's deques) outside the window.
					if err := rt.Run(b.body); err != nil {
						t.Fatal(err)
					}

					allocs := testing.AllocsPerRun(20, func() {
						if err := rt.Run(b.body); err != nil {
							t.Fatal(err)
						}
					})
					// Per-run fixed overhead (root/final pair, top-level counter,
					// computation record, …) is real but small; the budget that
					// matters is per op.
					perOp := (allocs - 64) / float64(b.ops)
					t.Logf("run allocations: %.0f total for %d %s (%.3f each)", allocs, b.ops, b.name, allocs/float64(b.ops))
					if b.finish && !a.reuseFinish {
						return // exempt: see the test's doc comment
					}
					if perOp > b.budget {
						t.Fatalf("steady-state run allocates %.2f objects per op (%.0f per run) over %d %s, want ≤ %.0f",
							perOp, allocs, b.ops, b.name, b.budget)
					}
				})
			}
		})
	}
}
