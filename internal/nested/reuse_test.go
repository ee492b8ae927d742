package nested

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFinishCounterReuseStress runs concurrent Runs of nested-Finish
// trees on one runtime, so finish counters are renewed across workers
// and across computations while other computations use theirs. Every
// finish block's continuation checks that all the leaves under it ran
// before it (a counter renewed while live would zero early), every Run
// checks its leaf total, and every round of concurrent Runs checks the
// closed-form vertex and execution counts. The batched row promotes at
// its first CAS miss, so it also drives counters that must be refused
// reuse (DESIGN.md §5). The invariant suites run it under -race.
func TestFinishCounterReuseStress(t *testing.T) {
	const (
		leaves = 128 // finish tree over 128 leaves: 127 blocks, 254 asyncs
		runs   = 4   // concurrent Runs per round
		rounds = 16
	)
	finishes, asyncs := int64(leaves-1), int64(2*leaves-2)
	vertices := 2 + 2*asyncs + 2*finishes // root and final, two per async and per block
	executed := 2 + asyncs + 2*finishes   // an async's continuation runs inline
	for _, spec := range []string{"", "adaptive:1:4"} {
		for _, workers := range []int{2, 4} {
			name := fmt.Sprintf("%s/p=%d", spec, workers)
			if spec == "" {
				name = fmt.Sprintf("default/p=%d", workers)
			}
			t.Run(name, func(t *testing.T) {
				rt := New(Config{Workers: workers, CounterSpec: spec, Seed: 7})
				defer rt.Close()
				for round := range rounds {
					v0, e0 := rt.Dag().VertexCount(), rt.Scheduler().Stats().Executed
					var wg sync.WaitGroup
					errs := make(chan error, runs)
					for range runs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							var sum atomic.Int64
							if err := rt.Run(func(c *Ctx) { finishTree(c, leaves, &sum) }); err != nil {
								errs <- err
							} else if got := sum.Load(); got != leaves {
								errs <- fmt.Errorf("run counted %d leaves, want %d", got, leaves)
							}
						}()
					}
					wg.Wait()
					close(errs)
					for err := range errs {
						t.Fatalf("round %d: %v", round, err)
					}
					dv, de := rt.Dag().VertexCount()-v0, rt.Scheduler().Stats().Executed-e0
					if dv != runs*vertices || de != uint64(runs*executed) {
						t.Fatalf("round %d: %d vertices, %d executed; closed form says %d, %d",
							round, dv, de, runs*vertices, runs*executed)
					}
				}
			})
		}
	}
}

// finishTree runs a finish block over m leaves (m a power of two): two
// asyncs of m/2 each, and a continuation that fails the computation
// unless all m leaves ran before it, then adds them to out.
func finishTree(c *Ctx, m int64, out *atomic.Int64) {
	if m < 2 {
		out.Add(1)
		return
	}
	var got atomic.Int64
	c.FinishThen(func(c *Ctx) {
		c.Async(func(c *Ctx) { finishTree(c, m/2, &got) })
		c.Async(func(c *Ctx) { finishTree(c, m/2, &got) })
	}, func(c *Ctx) {
		if n := got.Load(); n != m {
			c.Fail(fmt.Errorf("finish block over %d leaves continued after %d", m, n))
		}
		out.Add(got.Load())
	})
}
