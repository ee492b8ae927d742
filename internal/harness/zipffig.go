package harness

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// The hot-key skew the zipf figure (and the "zipf" bench) uses: 8
// finish-block keys with Zipf(1.2) shares, so the top key absorbs
// roughly 40% of the fan-in traffic and the tail keys stay warm but
// minor — hot and cold counters live in one run.
const (
	zipfKeys = 8
	zipfSkew = 1.2
)

// sharedRMWsPerOp folds the batched frontend's coalescing ledger into
// the figure's headline metric: shared RMWs per counter operation.
// Every operation the frontend did not buffer costs (at least) one
// shared RMW, every buffered unit costs none, and every flush
// (slot-anchor acquisition or weighted root update) is one RMW the
// frontend did issue — so ops − buffered + flushes, normalized per op.
// The clamp guards the spawn path's asymmetry: a buffered spawn
// deposits two units for one operation, so a fully batched run can
// buffer slightly more units than it has operations.
func sharedRMWsPerOp(ops, buffered, flushes uint64) float64 {
	if ops == 0 {
		return 0
	}
	rmws := flushes
	if ops > buffered {
		rmws += ops - buffered
	}
	return float64(rmws) / float64(ops)
}

// Zipf drives the batch-threshold sweep on the hot-key skew workload
// (`ppopp17bench -fig zipf`; not a figure of the paper — the batched
// counter frontend of DESIGN.md §6 is this repro's extension). One
// table sweeps the batch threshold on the real runtime and reads the
// coalescing ledger: shared RMWs per counter operation falling with
// the batch factor while promotions/demotions show the adaptive
// machinery at work. The second table replays the same idea in the
// discrete-event simulator at 1024 workers, where the metric is the
// contention cliff itself — the largest same-tick collision set any
// counter sees — moving down as flushes thin the collision sets.
//
// The adaptive spec pins contention=0 (eager promotion: every finish
// block starts promoted) so the sweep isolates the batching axis and
// does not depend on the host mustering enough parallelism for
// organic CAS misses — on a single-core box the cell may never fail a
// CAS at all. The batch=1 row is the unbatched frontier (ledger
// empty, 1 RMW per op) that the ≥4× reduction at batch=64 is measured
// against.
func Zipf(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Zipf", Title: "Hot-key skew: batch-threshold sweep of the batched counter frontend"}
	n := o.n(defaultN / 8)
	procs := o.MaxProcs
	if procs < 2 {
		// One worker never collides, never promotes, and so never
		// batches; the sweep needs the contended regime to exist.
		procs = 2
	}
	batches := []uint64{1, 2, 4, 8, 16, 32, 64, 128}
	if o.Quick {
		batches = []uint64{1, 8, 64}
	}

	tbl := stats.NewTable(
		fmt.Sprintf("zipf-hotkey n=%d keys=%d skew=%.1f p=%d (adaptive:0:batch, eager): ledger by batch threshold",
			n, zipfKeys, zipfSkew, procs),
		"batch", "shared-RMWs/op", "promotions", "demotions", "ops/sec/core")
	var rmwAt1, rmwAt64 float64
	for _, b := range batches {
		o.progress("zipf batch=%d", b)
		m, err := Run(Spec{Bench: "zipf", Algo: fmt.Sprintf("adaptive:0:%d", b),
			Procs: procs, N: n, Runs: o.Runs, Seed: 1})
		if err != nil {
			return nil, err
		}
		rep.Measurements = append(rep.Measurements, m)
		// The ledger accumulates across the measured runs; so must the
		// operation count it is normalized by.
		totalOps := m.CounterOps * uint64(m.Seconds.N)
		rmws := sharedRMWsPerOp(totalOps, m.CounterLocalIncs, m.CounterFlushes)
		switch b {
		case 1:
			rmwAt1 = rmws
		case 64:
			rmwAt64 = rmws
		}
		tbl.AddRow(fmt.Sprintf("%d", b),
			fmt.Sprintf("%.3f", rmws),
			fmt.Sprintf("%d", m.Promotions),
			fmt.Sprintf("%d", m.Demotions),
			m.OpsPerSecPerCore)
	}
	rep.Tables = append(rep.Tables, tbl)
	if rmwAt1 > 0 && rmwAt64 > 0 {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("shared-RMWs/op reduction batch=1 → batch=64: %.1f×", rmwAt1/rmwAt64))
	}

	// The simulated contention cliff: the same batch axis at a worker
	// count no host provides, measured as the largest same-tick
	// collision set (internal/sim's batched-flush model). Deterministic
	// from the config, like everything in the sim.
	simWorkers, simDepth, simRoots := 1024, 12, 4
	if o.Quick {
		simWorkers, simDepth, simRoots = 256, 8, 2
	}
	arrivals := make([]sim.Arrival, simRoots)
	for i := range arrivals {
		arrivals[i] = sim.Arrival{Tick: 0, Depth: simDepth}
	}
	simTbl := stats.NewTable(
		fmt.Sprintf("sim %d workers (%d roots × depth %d, contention=1): collision cliff by batch",
			simWorkers, simRoots, simDepth),
		"batch", "max colliders/tick", "modeled misses", "counter RMWs", "buffered units")
	for _, b := range []uint64{1, 8, 64} {
		o.progress("zipf sim batch=%d", b)
		res, err := sim.Run(sim.Config{Workers: simWorkers, Policy: sched.ChaseLev,
			Seed: 1, Topo: topology.Flat(simWorkers), Arrivals: arrivals,
			PromoteContention: 1, Batch: b})
		if err != nil {
			return nil, err
		}
		simTbl.AddRow(fmt.Sprintf("%d", b),
			fmt.Sprintf("%d", res.MaxColliders),
			fmt.Sprintf("%d", res.CounterMisses),
			fmt.Sprintf("%d", res.CounterRMWs),
			fmt.Sprintf("%d", res.LocalIncs))
	}
	rep.Tables = append(rep.Tables, simTbl)

	rep.Notes = append(rep.Notes,
		"expected shape: shared-RMWs/op ≈ 1 at batch=1 and falls roughly with the batch factor (≥4× by batch=64); the sim's modeled misses collapse the same way — the contention cliff moves (max colliders retains one residual drain-boundary flush burst)",
		"demotions > 0 are legitimate here: blocks whose storms pass see calm flush streaks and migrate back to the cell")
	return rep, nil
}
