package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/nested"
)

// zipfShares splits n leaves over k keys by a Zipf distribution with
// the given skew: key r (1-based rank) gets a share proportional to
// 1/r^skew. The split is deterministic — same (n, k, skew) always
// yields the same shares — so runs are exactly reproducible and the
// expected per-key operation counts are computable in closed form.
// Rounding residue goes to the hottest key; every key gets at least
// one leaf.
func zipfShares(n uint64, k int, skew float64) []uint64 {
	weights := make([]float64, k)
	var total float64
	for r := 0; r < k; r++ {
		weights[r] = 1 / math.Pow(float64(r+1), skew)
		total += weights[r]
	}
	shares := make([]uint64, k)
	var given uint64
	for r := 0; r < k; r++ {
		s := uint64(float64(n) * weights[r] / total)
		if s == 0 {
			s = 1
		}
		if given+s > n {
			s = 0
			if given < n {
				s = n - given
			}
		}
		shares[r], given = s, given+s
	}
	if given < n {
		shares[0] += n - given
	}
	return shares
}

// ZipfHotKey runs the hot-key skew kernel: k concurrent finish blocks
// under one computation, where block r receives a Zipf(skew) share of
// the n fan-in leaves — so a handful of "hot" finish counters absorb
// most of the increment/decrement traffic while the rest stay cold.
// Each block builds its share as the Figure 6 recursive binary fanin,
// storming its own finish counter from every worker that stole a piece
// of it.
//
// This is the batched counter frontend's motivating workload: with the
// plain adaptive counter every operation on a hot key is at least one
// shared RMW on that key's counter; with batching
// (adaptive:K:batch) workers coalesce their traffic per hot counter
// into per-worker delta slots, cutting shared RMWs per operation by
// roughly the batch factor. The skew is what separates it from Fanin
// (one counter, pure storm) and Indegree2 (all counters cold): both
// hot and cold counters are live at once, so promotion, batching, and
// demotion all have something to act on in a single run.
func ZipfHotKey(rt *nested.Runtime, n uint64, k int, skew float64) Result {
	if k < 1 {
		panic("workload: ZipfHotKey needs at least one key")
	}
	shares := zipfShares(n, k, skew)
	v0 := rt.Dag().VertexCount()
	var rec func(c *nested.Ctx, n uint64)
	rec = func(c *nested.Ctx, n uint64) {
		if n >= 2 {
			h := n / 2
			c.Async(func(c *nested.Ctx) { rec(c, h) })
			c.Async(func(c *nested.Ctx) { rec(c, h) })
		}
	}
	start := time.Now()
	final, err := rt.RunMeasured(func(c *nested.Ctx) {
		for _, share := range shares {
			s := share
			c.Async(func(c *nested.Ctx) {
				c.Finish(func(c *nested.Ctx) { rec(c, s) })
			})
		}
	})
	elapsed := time.Since(start)
	mustRun("zipf-hotkey", err)
	ops := uint64(2 * k) // the per-key block asyncs against the top-level finish
	for _, s := range shares {
		ops += faninOps(s)
	}
	return Result{
		Name:       fmt.Sprintf("zipf-hotkey-k%d", k),
		N:          n,
		Elapsed:    elapsed,
		CounterOps: ops,
		Vertices:   rt.Dag().VertexCount() - v0,
		FinalNodes: final.NodeCount(),
		Workers:    rt.Workers(),
	}
}
