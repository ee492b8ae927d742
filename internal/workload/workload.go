// Package workload implements the paper's benchmark kernels as
// reusable generators over the nested-parallelism runtime:
//
//   - Fanin (Figure 6): n async calls all synchronizing at a single
//     finish block — the contention stress test;
//   - Indegree2 (Figure 7): the same work shape but with a private
//     finish block per fork, so every finish vertex has in-degree 2 —
//     the per-finish-allocation stress test;
//   - FaninWork (appendix C.3): fanin with a calibrated amount of
//     dummy work per leaf task — the granularity study;
//   - PhaseShift: a low-contention prologue into a fan-in storm on a
//     single finish counter — the adaptive counter's migration
//     workload (neither static algorithm wins both phases);
//   - Burst: alternating idle gaps and concurrent fan-out storms — the
//     elastic worker pool's motivating workload (a fixed big pool
//     wastes resident workers through every gap, a fixed small pool
//     loses storm throughput);
//   - SnziStress (appendix C.1): the raw arrive/depart microbenchmark
//     of the original SNZI paper's Figure 10, without a dag runtime.
//
// Each generator returns a Result with the measured wall time and the
// operation counts used to report throughput the way the paper does
// (operations per second per core).
package workload

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/counter"
	"repro/internal/nested"
	"repro/internal/snzi"
)

// Result describes one benchmark run.
type Result struct {
	Name       string
	N          uint64
	Elapsed    time.Duration
	CounterOps uint64 // dependency-counter increments + decrements
	Vertices   int64  // dag vertices created during the run
	FinalNodes int64  // node count of the top-level finish counter (nb_incounter_nodes)
	Workers    int
}

// OpsPerSec returns total counter operations per second.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.CounterOps) / r.Elapsed.Seconds()
}

// OpsPerSecPerCore returns the paper's y-axis: operations per second
// per core.
func (r Result) OpsPerSecPerCore() float64 {
	if r.Workers == 0 {
		return 0
	}
	return r.OpsPerSec() / float64(r.Workers)
}

func (r Result) String() string {
	return fmt.Sprintf("%s n=%d workers=%d time=%v ops/s/core=%.0f nodes=%d",
		r.Name, r.N, r.Workers, r.Elapsed, r.OpsPerSecPerCore(), r.FinalNodes)
}

// faninOps returns the number of dependency-counter operations the
// fanin benchmark performs for a given n: one increment per async and
// one decrement per task. For n a power of two there are 2(n−1) asyncs
// and 2n−1 tasks.
func faninOps(n uint64) uint64 {
	if n < 2 {
		return 1
	}
	asyncs := recCount(n) // asyncs == increments
	return asyncs + asyncs + 1
}

// recCount counts the async calls fanin_rec(n) performs: 2 per
// recursive level with n ≥ 2.
func recCount(n uint64) uint64 {
	if n < 2 {
		return 0
	}
	return 2 + 2*recCount(n/2)
}

// mustRun panics on a failed measurement run: workload generators
// publish Results with no error channel, and statistics over a
// cancelled, mostly-skipped computation must never pass for a
// measurement.
func mustRun(name string, err error) {
	if err != nil {
		panic(fmt.Sprintf("workload: %s run failed: %v", name, err))
	}
}

// measure runs body as one computation on rt and fills in what every
// generator reports the same way: wall time, the vertices the run
// created, the top-level finish counter's node count and the worker
// count. The generator supplies its name, size and counter-op count.
func measure(rt *nested.Runtime, name string, n, ops uint64, body nested.Task) Result {
	v0 := rt.Dag().VertexCount()
	start := time.Now()
	final, err := rt.RunMeasured(body)
	elapsed := time.Since(start)
	mustRun(name, err)
	return Result{
		Name:       name,
		N:          n,
		Elapsed:    elapsed,
		CounterOps: ops,
		Vertices:   rt.Dag().VertexCount() - v0,
		FinalNodes: final.NodeCount(),
		Workers:    rt.Workers(),
	}
}

// fanin is the Figure 6 recursion: n leaves by binary async
// splitting, each leaf doing work units of dummy work.
func fanin(c *nested.Ctx, n uint64, work int) {
	if n >= 2 {
		h := n / 2
		c.Async(func(c *nested.Ctx) { fanin(c, h, work) })
		c.Async(func(c *nested.Ctx) { fanin(c, h, work) })
		return
	}
	Work(work)
}

// Fanin runs the Figure 6 kernel: n leaves created by recursive binary
// async splitting, all joining at the single top-level finish.
func Fanin(rt *nested.Runtime, n uint64) Result {
	return FaninWork(rt, n, 0)
}

// FaninWork is Fanin with `work` units of calibrated dummy work (≈ 1ns
// each, see Work) executed in every leaf task — the granularity study
// of appendix C.3.
func FaninWork(rt *nested.Runtime, n uint64, work int) Result {
	name := "fanin"
	if work > 0 {
		name = fmt.Sprintf("fanin-work%d", work)
	}
	return measure(rt, name, n, faninOps(n), func(c *nested.Ctx) { fanin(c, n, work) })
}

// PhaseShift runs the contention phase-shift kernel: one top-level
// finish block that lives through two regimes. The prologue issues
// n/4 sequential asyncs, each carrying enough calibrated work
// (prologueWorkNs per leaf) that counter operations are spaced out in
// time — the regime where the flat fetch-and-add cell is optimal and
// the in-counter only pays tree overhead. The storm then builds the
// Figure 6 recursive binary fanin with n leaves, whose joins all
// synchronize at the same finish counter in a short window — the
// regime where the cell serializes and the in-counter wins.
//
// Because both regimes hit a single dependency counter, neither static
// algorithm wins the whole kernel; it exists to measure the adaptive
// counter's promotion mid-flight (callers can read the promotion count
// from the algorithm's stats after the run).
func PhaseShift(rt *nested.Runtime, n uint64) Result {
	const prologueWorkNs = 200
	CalibrateWork()
	prologue := n / 4
	return measure(rt, "phase-shift", n, 2*prologue+faninOps(n), func(c *nested.Ctx) {
		for i := uint64(0); i < prologue; i++ {
			c.Async(func(*nested.Ctx) { Work(prologueWorkNs) })
		}
		fanin(c, n, 0)
	})
}

// Indegree2 runs the Figure 7 kernel: the fanin shape, but each fork
// synchronizes in its own finish block, so the computation creates one
// dependency counter per internal node (2 increments each).
func Indegree2(rt *nested.Runtime, n uint64) Result {
	var rec func(c *nested.Ctx, n uint64)
	rec = func(c *nested.Ctx, n uint64) {
		if n >= 2 {
			h := n / 2
			c.Finish(func(c *nested.Ctx) {
				c.Async(func(c *nested.Ctx) { rec(c, h) })
				c.Async(func(c *nested.Ctx) { rec(c, h) })
			})
		}
	}
	// Same async/signal counts as fanin, spread over many counters.
	return measure(rt, "indegree2", n, faninOps(n), func(c *nested.Ctx) { rec(c, n) })
}

// SnziStress reproduces the original SNZI paper's microbenchmark
// (appendix C.1 / Figure 12): p goroutines perform balanced
// arrive/depart pairs on a shared counter for opsPerThread iterations,
// with no dag runtime in the way. depth < 0 selects the single-cell
// fetch-and-add counter; depth ≥ 0 a fixed SNZI tree of that depth
// with each goroutine hashed to a leaf.
func SnziStress(p int, depth int, opsPerThread int) Result {
	name := fmt.Sprintf("snzi-stress-d%d", depth)
	start := time.Now()
	if depth < 0 {
		name = "snzi-stress-fetchadd"
		c := counter.FetchAdd{}.New(1)
		st := c.RootState()
		var wg sync.WaitGroup
		for i := 0; i < p; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < opsPerThread; k++ {
					st.Increment(nil)
					st.Decrement()
				}
			}()
		}
		wg.Wait()
	} else {
		tree, leaves := snzi.NewFixedTree(1, depth)
		var wg sync.WaitGroup
		for i := 0; i < p; i++ {
			leaf := leaves[i%len(leaves)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < opsPerThread; k++ {
					leaf.Arrive()
					leaf.Depart()
				}
			}()
		}
		wg.Wait()
		if !tree.Query() {
			panic("workload: stress tree lost its base surplus")
		}
	}
	return Result{
		Name:       name,
		N:          uint64(opsPerThread),
		Elapsed:    time.Since(start),
		CounterOps: uint64(p) * uint64(opsPerThread) * 2,
		Workers:    p,
	}
}
