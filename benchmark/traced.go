package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// The traced run's time budget, as shares of -seconds: a traced window
// on the workload, a 1-worker window for the speed-up, four short side
// windows for the two tier ratios, and the layer cells.
const (
	tracedShare    = 0.40
	oneWorkerShare = 0.10
	sideShare      = 0.03
	cellBatchShare = 1.0 / 600
	cellBatches    = 3
)

// counterOf names the counter spec, as the ledger abbreviates it, that
// a workload's finish blocks use.
var counterOf = map[string]string{
	"fanin_dyn":         "dyn",
	"indegree2_default": "adaptive",
	"zipf_ladder":       "batch",
	"serve_mix":         "adaptive",
}

// tracedRun is the separate run behind `-trace 1`: it reports the
// per-layer ledger, never an end-to-end metric. one runs one epoch of
// the workload at the given worker count, for the given time, traced
// when tr is non-nil.
func tracedRun(o options, d time.Duration, log io.Writer, one epochFunc) (result, *report, error) {
	var res result
	part := func(share float64) time.Duration { return time.Duration(float64(d) * share) }

	tr := newTracer()
	traced, err := one(benchWorkers, part(tracedShare), tr)
	if err != nil {
		return res, nil, fmt.Errorf("traced window: %w", err)
	}
	rss := peakRSSMB()
	path, err := tr.write(o.outDir, o.workload)
	if err != nil {
		return res, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "%d spans written to %s; self time per span name:\n", len(tr.spans), path)
	self := selfTimes(tr.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(log, "  self %-16s %12.3f ms\n", name, float64(self[name])/float64(time.Millisecond))
	}
	single, err := one(1, part(oneWorkerShare), nil)
	if err != nil {
		return res, nil, fmt.Errorf("1-worker window: %w", err)
	}
	for _, e := range []serveEpoch{traced, single} {
		res.Attempted += e.attempted
		res.Failed += e.failed
	}
	res.Correct = res.Failed == 0
	if len(traced.tracedMS) == 0 || len(traced.plainMS) == 0 || single.opsPerS == 0 {
		return res, nil, fmt.Errorf("a window completed no op in its share of %v", d)
	}

	rep := newReport()
	if err := layerCells(rep, cellTimer{batch: part(cellBatchShare), batches: cellBatches}); err != nil {
		return res, nil, err
	}
	if err := tierRatios(rep, o, part(sideShare)); err != nil {
		return res, nil, err
	}
	runningLedger(rep, log, traced, single, rss)
	shares(rep, o.workload, traced)
	guards(log, o.workload, rep, traced)
	return res, rep, nil
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// tierRatios runs the two side comparisons between counter tiers on
// reduced kernels (a side window is short; the kernel is sized so it
// still completes a few dozen ops): the in-counter against the
// fetch-and-add cell on the fan-in, and the batched frontend against
// the unbatched adaptive counter on the Zipf ladder.
func tierRatios(rep *report, o options, d time.Duration) error {
	p50 := func(w batchWorkload, spec string) (float64, error) {
		e, err := batchEpoch(w, benchWorkers, spec, o.seed, o.smoke, d, nil)
		if err != nil {
			return 0, fmt.Errorf("side window %q: %w", spec, err)
		}
		if e.failed > 0 || len(e.opMS) == 0 {
			return 0, fmt.Errorf("side window %q: %d of %d ops failed", spec, e.failed, e.attempted)
		}
		return median(e.opMS), nil
	}
	fanin := batchWorkload{build: func(_ uint64, smoke bool) *kernel { return newFanin(pick(smoke, 1<<10, 1<<15)) }}
	zipf := batchWorkload{build: func(seed uint64, smoke bool) *kernel {
		return newZipfLadder(pick(smoke, 1<<12, 1<<16), 64, 1.1, seed)
	}}
	for _, side := range []struct {
		name     string
		w        batchWorkload
		num, den string
	}{
		{"counter.dyn_vs_fetchadd", fanin, "dyn", "fetchadd"},         // op time of dyn over fetchadd
		{"counter.batch_gain", zipf, "adaptive:32", "adaptive:32:64"}, // op time unbatched over batched
	} {
		num, err := p50(side.w, side.num)
		if err != nil {
			return err
		}
		den, err := p50(side.w, side.den)
		if err != nil {
			return err
		}
		rep.set(side.name, num/den, "ratio")
	}
	return nil
}

// runningLedger reports what the program's public counters, gauges and
// responses said while the workload ran: per-op counts from the traced
// window's Stats, the request split from serve_mix's responses (0 on a
// batch workload, which sends no request), and the process meters.
func runningLedger(rep *report, log io.Writer, traced, single serveEpoch, rss float64) {
	perOp := func(v float64) float64 { return v / float64(max(traced.statsOps, 1)) }
	st := traced.stats
	rep.set("counter.promotions_per_op", perOp(float64(st.Promotions)), "count")
	rep.set("counter.demotions_per_op", perOp(float64(st.Demotions)), "count")
	flushes := 0.0
	if st.CounterLocalIncs > 0 {
		flushes = float64(st.CounterFlushes) / float64(st.CounterLocalIncs) * 1000
	}
	rep.set("counter.flushes_per_kinc", flushes, "count")
	rep.set("sched.steals_per_op", perOp(float64(st.Steals)), "count")
	rep.set("sched.parked_frac", traced.parkedFrac, "ratio")
	rep.set("sched.injector_depth_max", float64(traced.injectorPeak), "count")
	rep.set("sched.speedup_p2", traced.opsPerS/single.opsPerS, "ratio")
	rep.set("spdag.vertices_per_op", perOp(float64(st.Vertices)), "count")

	var syncMS, asyncMS, queueMS, runMS, lateMS []float64
	for _, r := range traced.paced {
		lateMS = append(lateMS, r.lateMS)
		if !r.ok {
			continue
		}
		queueMS = append(queueMS, r.queueMS)
		runMS = append(runMS, r.runMS)
		if r.async {
			asyncMS = append(asyncMS, r.ms)
		} else {
			syncMS = append(syncMS, r.ms)
		}
	}
	for _, xs := range [][]float64{syncMS, asyncMS, lateMS} {
		sort.Float64s(xs)
	}
	if len(syncMS) > 0 {
		logSamples(log, "gateway.sync_ms", len(syncMS), 99)
	}
	rep.set("gateway.queue_ms_p50", median(queueMS), "ms")
	rep.set("gateway.run_ms_p50", median(runMS), "ms")
	rep.set("gateway.sync_ms_p50", percentile(syncMS, 50), "ms")
	rep.set("gateway.sync_ms_p90", percentile(syncMS, 90), "ms")
	rep.set("gateway.sync_ms_p99", percentile(syncMS, 99), "ms")
	rep.set("gateway.async_ms_p50", percentile(asyncMS, 50), "ms")
	g := traced.gateway
	shed := g.ShedQueueFull + g.ShedOverload + g.ShedThrottled + g.ShedDraining + g.ShedDegraded
	rep.set("gateway.shed_ratio", float64(shed)/float64(max(g.Admitted+shed, 1)), "ratio")
	rep.set("gateway.vanished_poll_ratio", float64(traced.vanished)/float64(max(traced.asyncs, 1)), "ratio")

	rep.set("proc.rss_mb_peak", rss, "MB")
	n := float64(max(traced.windowOps, 1))
	rep.set("proc.gc_cycles_per_op", float64(traced.gcCycles)/n, "count")
	rep.set("proc.gc_pause_ms_per_op", traced.gcPauseMS/n, "ms")
	rep.set("bench.gen_late_ms_p99", percentile(lateMS, 99), "ms")
	// Every other op of the traced window ran untraced, on the same
	// runtime at the same time: op times of the traced ones over those.
	rep.set("bench.trace_overhead_ratio", median(traced.tracedMS)/median(traced.plainMS), "ratio")
}

// shares is the computed cost breakdown: how many operations of each
// layer one op performs — exact, from the identities asyncs = vertices −
// executed and finishes = (executed − 2·runs − asyncs)/2 over the
// program's own Stats — times that layer's unit cost from the isolated
// cells, as a share of the CPU one op costs end to end. It is
// arithmetic over measured numbers, not a measurement: what the cells
// do not see (contention, cache misses between layers, the scheduler's
// loop, GC) is the unattributed remainder.
func shares(rep *report, workload string, traced serveEpoch) {
	ops := float64(max(traced.statsOps, 1))
	st := traced.stats
	vertices, executed := float64(st.Vertices)/ops, float64(st.Executed)/ops
	asyncs := vertices - executed
	const runs = 1.0
	finishes := max(0, (executed-2*runs-asyncs)/2)
	steals := float64(st.Steals) / ops
	flushes := float64(st.CounterFlushes) / ops
	requests, polls := 0.0, 0.0
	if workload == "serve_mix" {
		requests = 1
		polls = 0.25 * rep.get("gateway.async_ms_p50") / (float64(pollEvery) / float64(time.Millisecond))
	}

	spec := "counter." + counterOf[workload]
	cold := finishes + runs // counters created, drained and released
	faPair := rep.get("counter.fetchadd.pair_ns")
	spdagNet := max(0, rep.get("spdag.vertex_cycle_ns")-faPair/2) // a chain link: two vertices, one pair
	pushPop := rep.get("deque.push_pop_ns")

	snziCore := flushes * rep.get("snzi.weighted_pair_ns") / 2
	counterNS := max(0, asyncs-cold)*rep.get(spec+".pair_ns") + cold*rep.get(spec+".new_drain_ns")
	if counterOf[workload] == "dyn" {
		inTree := asyncs * rep.get("core.inc_dec_ns")
		snziCore += inTree
		counterNS = max(0, counterNS-inTree)
	}
	asyncNet := max(0, rep.get("nested.async_ns")-2*spdagNet-faPair-pushPop)
	finishNet := max(0, rep.get("nested.finish_ns")-2*spdagNet-rep.get("counter.fetchadd.new_drain_ns")-2*pushPop)
	runNS := rep.get("nested.run_empty_us_p50") * 1e3
	parts := []struct {
		name string
		ns   float64
	}{
		{"share.snzi_core", snziCore},
		{"share.counter", counterNS},
		{"share.deque_sched", executed*pushPop + steals*rep.get("deque.steal_ns")},
		{"share.spdag", vertices * spdagNet},
		{"share.nested", asyncs*asyncNet + finishes*finishNet + runs*runNS},
		{"share.gateway", requests * max(0, rep.get("gateway.http_us_p50")*1e3-runNS)},
		{"share.sink", requests*rep.get("sink.publish_ns") + polls*rep.get("sink.lookup_ns")},
	}
	total := traced.cpuMSPerOp * 1e6 // ns of CPU per op
	rest := 1.0
	for _, p := range parts {
		rep.set(p.name, p.ns/total, "ratio")
		rest -= p.ns / total
	}
	rep.set("share.unattributed", rest, "ratio")
}

// guards warns — never fails — when a workload has silently stopped
// exercising the mechanism it is in the benchmark for.
func guards(log io.Writer, workload string, rep *report, traced serveEpoch) {
	warn := func(ok bool, format string, args ...any) {
		if !ok {
			fmt.Fprintf(log, "WARNING guard: "+format+"\n", args...)
		}
	}
	promo, flushes := rep.get("counter.promotions_per_op"), rep.get("counter.flushes_per_kinc")
	parked := rep.get("sched.parked_frac")
	switch workload {
	case "zipf_ladder":
		warn(promo >= 0.5, "zipf_ladder promotes %.2f counters per op, want >= 0.5: the contended path is not running", promo)
		warn(flushes > 0, "zipf_ladder flushed no batched delta: the batched frontend is not running")
	case "fanin_dyn", "indegree2_default":
		warn(promo == 0 && flushes == 0, "%s promoted %.2f counters per op and flushed %.2f per 1000 units, want none of either", workload, promo, flushes)
	}
	if workload == "serve_mix" {
		warn(parked > 0.2, "serve_mix paced phase has workers parked %.3f of the time, want > 0.2: it is not reading latency below capacity", parked)
		late := rep.get("bench.gen_late_ms_p99")
		warn(late < 5, "the paced generator sent %.2f ms late at p99, want < 5 ms: latencies include generator lag", late)
		warn(traced.vanished == 0, "%d of %d asynchronous requests had a poll answered 404 for a run the program had admitted (GET /v1/runs/{id} looks in the sink, then in the pending set; a run settling in between is in neither)", traced.vanished, traced.asyncs)
	} else {
		warn(parked < 0.02, "%s has workers parked %.3f of the time, want < 0.02: the batch loop is not keeping both busy", workload, parked)
	}
	warn(traced.failed == 0, "%d of %d traced ops failed their output check", traced.failed, traced.attempted)
}
