package harness

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/gateway"
	"repro/internal/report"
	"repro/internal/sink"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The serving experiment (`ppopp17bench -fig serve`, not a figure of
// the paper): an in-process gateway.Server over a fixed-size runtime,
// driven by internal/workload's open-loop Uniform generator at three
// offered-load steps around the host's measured capacity — under,
// at, and 2× over. The table shows the admission-control story end to
// end: below capacity the gateway completes everything it is offered
// with a flat p99; past capacity, completed throughput plateaus at
// capacity while the shed rate absorbs the excess, instead of the
// queue growing and p99 diverging.

// serveServiceUS is the calibrated per-request service time (spin
// template): 5ms is long enough to make capacity predictable and
// short enough to keep a full three-step sweep around a second per
// step.
const serveServiceUS = 5000

// StartServer boots an in-process gateway server on a loopback port
// over a fresh procs-worker runtime (seed 1, 2·procs dispatchers, a
// 4·procs queue) publishing run records to s (nil: the gateway's
// default sink). It returns the base URL and a stop function that
// cancels Serve and waits for its result. The serve and sink figures
// and BenchmarkServe each measure one such server.
func StartServer(procs int, s *sink.Sink) (url string, stop func() error, err error) {
	srv := gateway.NewServer("127.0.0.1:0", gateway.Config{
		RuntimeOptions: []repro.Option{repro.WithWorkers(procs), repro.WithSeed(1)},
		Dispatchers:    2 * procs,
		QueueDepth:     4 * procs,
		Sink:           s,
	})
	if err := srv.Listen(); err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()
	return "http://" + srv.Addr(), func() error {
		cancel()
		return <-served
	}, nil
}

// ms formats a latency in milliseconds for an artifact record.
func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }

// Serve runs the serving experiment and reports one row per offered
// load step.
func Serve(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{
		Figure: "Serve",
		Title:  "Gateway admission control: throughput, latency, and shed rate vs offered load",
	}
	procs := o.MaxProcs
	window := time.Second
	if o.Quick {
		window = 300 * time.Millisecond
	}
	// Capacity is CPU-bound: procs workers × (1s / service time)
	// requests per second. The spin template burns calibrated CPU, so
	// this estimate tracks the host.
	capacity := float64(procs) / (float64(serveServiceUS) * 1e-6)
	tbl := stats.NewTable(
		fmt.Sprintf("serve (spin %dµs, %d workers): offered load sweep", serveServiceUS, procs),
		"offered req/s", "completed req/s", "shed rate", "p50", "p95", "p99")
	for _, frac := range []float64{0.5, 1, 2} {
		rate := frac * capacity
		o.progress("serve %gx capacity (%.0f req/s)", frac, rate)
		best, times, err := serveStep(procs, rate, window, o.Runs)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(
			fmt.Sprintf("%.0f", best.Offered),
			fmt.Sprintf("%.0f", best.Throughput()),
			fmt.Sprintf("%.3f", best.ShedRate()),
			best.Latency.P50.Round(100*time.Microsecond).String(),
			best.Latency.P95.Round(100*time.Microsecond).String(),
			best.Latency.P99.Round(100*time.Microsecond).String())
		// The serving record is request-shaped, not counter-shaped:
		// offered load in, throughput / shed rate / client latency
		// quantiles out.
		rep.Blocks = append(rep.Blocks, withCaveat(report.NewBlock().
			In("bench", "serve").
			In("proc", procs).
			In("n", serveServiceUS).
			In("rate", fmt.Sprintf("%.1f", best.Offered)).
			Out("exectime", fmt.Sprintf("%.6f", times.Mean)).
			Out("nb_runs", times.N).
			Out("nb_sent", best.Sent).
			Out("nb_completed", best.OK).
			Out("nb_shed", best.Shed).
			Out("shed_rate", fmt.Sprintf("%.4f", best.ShedRate())).
			Out("throughput_req_per_sec", fmt.Sprintf("%.1f", best.Throughput())).
			Out("p50_ms", ms(best.Latency.P50)).
			Out("p95_ms", ms(best.Latency.P95)).
			Out("p99_ms", ms(best.Latency.P99)).
			Out("killed", 0), hostCaveat()))
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"expected shape: completed throughput tracks offered load below capacity, plateaus at capacity past it; the shed rate (429 + Retry-After) absorbs the 2x excess while p99 stays bounded by the queue depth, not the offered load")
	return rep, nil
}

// serveStep measures one offered-load step on a fresh server (fresh
// stats, cold queue — the per-point equivalent of Run's fresh
// runtime). Runs > 1 keeps the best-throughput run, matching how the
// paper reports repeated measurements; times summarizes every run.
func serveStep(procs int, rate float64, window time.Duration, runs int) (best workload.ServeResult, times stats.Summary, err error) {
	url, stop, err := StartServer(procs, nil)
	if err != nil {
		return best, times, err
	}
	defer stop()

	cfg := workload.ServeConfig{
		URL:      url,
		Template: "spin",
		N:        serveServiceUS,
		Timeout:  time.Minute, // sheds must come from admission, not deadlines
		Tenants:  4,
		Rate:     rate,
		Duration: window,
	}
	workload.Uniform(workload.ServeConfig{ // warmup: calibrate spin, warm conns
		URL: cfg.URL, Template: "spin", N: serveServiceUS,
		Tenants: 4, Rate: rate / 4, Duration: window / 4,
	})
	secs := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		res := workload.Uniform(cfg)
		secs = append(secs, res.Elapsed.Seconds())
		if res.Throughput() > best.Throughput() {
			best = res
		}
	}
	if best.Errors > 0 {
		return best, times, fmt.Errorf("harness: serve step at %.0f req/s: %d request errors", rate, best.Errors)
	}
	return best, stats.Summarize(secs), nil
}
