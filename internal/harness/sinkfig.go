package harness

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/sink"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The coalescing experiment (`ppopp17bench -fig sink`, not a figure of
// the paper): the async v1 lifecycle driven end to end — open-loop
// async submissions, client-side polling to completion — against a
// gateway whose run-record sink is swept across coalescing thresholds.
// The sink's accounting splits every completed run (one logical
// write) from every backend WriteBatch (one backend call), so the
// table shows the VSA-style trade directly: the write-reduction ratio
// grows with the threshold while the client-observed completion
// latency stays flat, because publishing is a buffer append off the
// request path either way.

// sinkServiceUS keeps each async run ~1ms so a sub-second window
// completes hundreds of runs per threshold step.
const sinkServiceUS = 1000

// SinkCoalescing runs the threshold sweep and reports one row per
// threshold.
func SinkCoalescing(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{
		Figure: "Sink",
		Title:  "Run-record sink: write coalescing vs threshold under async load",
	}
	procs := o.MaxProcs
	window := time.Second
	if o.Quick {
		window = 400 * time.Millisecond
	}
	// Offered below capacity: sheds would complete no run and publish
	// no record, muddying the ledger.
	rate := 0.8 * float64(procs) / (float64(sinkServiceUS) * 1e-6)
	tbl := stats.NewTable(
		fmt.Sprintf("sink (spin %dµs async, %d workers): coalescing threshold sweep", sinkServiceUS, procs),
		"threshold", "completed", "logical writes", "backend calls", "ratio", "p50", "p99")
	for _, threshold := range []int{1, 8, 32, 128} {
		o.progress("sink threshold %d (%.0f async req/s)", threshold, rate)
		res, st, err := sinkStep(procs, threshold, rate, window)
		if err != nil {
			return nil, err
		}
		ratio := float64(st.LogicalWrites)
		if st.BackendCalls > 0 {
			ratio = float64(st.LogicalWrites) / float64(st.BackendCalls)
		}
		tbl.AddRow(threshold, res.OK, st.LogicalWrites, st.BackendCalls, fmt.Sprintf("%.1f", ratio),
			res.Latency.P50.Round(100*time.Microsecond).String(),
			res.Latency.P99.Round(100*time.Microsecond).String())
		// The coalescing record: async load in, the sink's
		// write-reduction ledger out.
		rep.Blocks = append(rep.Blocks, withCaveat(report.NewBlock().
			In("bench", "sink").
			In("proc", procs).
			In("threshold", threshold).
			In("rate", fmt.Sprintf("%.1f", res.Offered)).
			Out("exectime", fmt.Sprintf("%.6f", res.Elapsed.Seconds())).
			Out("nb_completed", res.OK).
			Out("nb_logical_writes", st.LogicalWrites).
			Out("nb_backend_calls", st.BackendCalls).
			Out("coalesce_ratio", fmt.Sprintf("%.1f", ratio)).
			Out("p50_ms", ms(res.Latency.P50)).
			Out("p99_ms", ms(res.Latency.P99)).
			Out("killed", 0), hostCaveat()))
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"expected shape: backend calls shrink roughly linearly with the threshold (the interval flusher bounds the tail), logical writes track completed runs 1:1, and the completion quantiles stay flat across the sweep — coalescing is free at publish time because the buffer append is off the request path")
	return rep, nil
}

// sinkStep measures one threshold on a fresh server: async load for
// the window, then the sink ledger is read before the drain so the
// final Close flush does not count against the steady-state ratio.
func sinkStep(procs, threshold int, rate float64, window time.Duration) (workload.ServeResult, sink.Stats, error) {
	s := sink.New(sink.NewRing(1<<16),
		sink.WithThreshold(threshold), sink.WithShards(1))
	url, stop, err := StartServer(procs, s)
	if err != nil {
		return workload.ServeResult{}, sink.Stats{}, err
	}
	defer stop()

	res := workload.Uniform(workload.ServeConfig{
		URL:      url,
		Template: "spin",
		N:        sinkServiceUS,
		Timeout:  time.Minute,
		Mode:     "async",
		Tenants:  4,
		Rate:     rate,
		Duration: window,
	})
	if res.Errors > 0 {
		return res, sink.Stats{}, fmt.Errorf("harness: sink step at threshold %d: %d request errors", threshold, res.Errors)
	}
	return res, s.Stats(), nil
}
