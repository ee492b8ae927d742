// Command reproserve runs the runtime as a network service: an HTTP
// front-end (internal/gateway) over one long-lived repro.Runtime,
// with admission control, per-tenant quotas and weighted-fair
// dispatch, bounded queueing with 429 + Retry-After shedding, and a
// graceful SIGTERM drain.
//
//	reproserve -addr :8080 -workers 2 -max-workers 8 \
//	           -tenant-rate 100 -tenant-burst 20 -queue-depth 128
//
// Endpoints (all under /v1):
//
//	POST   /v1/runs/{template}?tenant=T&n=N&timeout=D  run a computation (sync)
//	POST   /v1/runs/{template}?mode=async&...          202 {"run_id"} after admission
//	GET    /v1/runs/{id}                               poll: 200 record / 202 pending / 404
//	DELETE /v1/runs/{id}                               cancel a tracked run
//	GET    /v1/stats                                   admission + sink + runtime counters
//	GET    /v1/templates                               the template catalog
//	GET    /v1/healthz                                 readiness (503 while draining)
//
// Templates are the quickstart-style kernels of gateway.Builtins
// (fib, fanin, sort, parfor, spin). On SIGTERM/SIGINT the server
// stops admitting (503), completes every admitted computation,
// flushes every completed run's record to the sink backend, and
// exits; see DESIGN.md §9 for the drain argument and §11 for the
// sink.
//
// Completed runs publish RunRecords through a coalescing sink
// (DESIGN.md §11). -sink picks the backend:
//
//	-sink ring[:N]          bounded in-memory ring, N records (default, N=4096)
//	-sink jsonl:PATH[:MB]   append-only JSONL file, rotated past MB megabytes
//	-sink http://URL        POST each batch as a JSON array to URL
//
// -sink-threshold and -sink-interval tune the coalescing: a shard
// flushes at threshold buffered records, and a background flusher
// sweeps stragglers every interval.
//
// Self-defense (DESIGN.md §10): -reap-grace arms the hung-request
// reaper (a request still running that long past its deadline 504s
// and its dispatcher slot is replaced), -watchdog arms the scheduler
// stall watchdog, and both trip a -degraded-holddown window during
// which new admissions shed 503 + Retry-After. -chaos additionally
// registers the hostile "wedge" template (a task body that busy-spins
// ignoring cancellation) so the reap → degrade → recover → drain path
// can be drilled against a live server; never enable it on a deployment
// that accepts untrusted tenants.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/gateway"
	"repro/internal/sink"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "worker floor (0 = GOMAXPROCS)")
		maxWorkers  = flag.Int("max-workers", 0, "elastic worker ceiling (0 = fixed pool)")
		counterSpec = flag.String("counter", "adaptive", "dependency counter: adaptive[:K[:batch]] | dyn | fetchadd | snzi-D")
		queueDepth  = flag.Int("queue-depth", 128, "bounded admission queue across tenants")
		dispatchers = flag.Int("dispatchers", 0, "concurrent Runs bound (0 = 2×GOMAXPROCS)")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant quota, requests/second (0 = unmetered)")
		tenantBurst = flag.Int("tenant-burst", 0, "per-tenant burst size (0 = max(1, rate))")
		pegged      = flag.Duration("pegged-window", 50*time.Millisecond, "shed when the elastic pool stays pegged at max this long")
		timeout     = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout  = flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
		reapGrace   = flag.Duration("reap-grace", time.Second, "force-fail (504) a request still running this long past its deadline (negative disables)")
		holdDown    = flag.Duration("degraded-holddown", 2*time.Second, "shed admissions (503 + Retry-After) this long after a reap or stall")
		watchdog    = flag.Duration("watchdog", 0, "scheduler stall watchdog threshold (0 = off)")
		chaosMode   = flag.Bool("chaos", false, "register the hostile wedge template (self-defense drill; do not expose to untrusted tenants)")
		sinkSpec    = flag.String("sink", "ring", "run-record backend: ring[:N] | jsonl:PATH[:MB] | http(s)://URL")
		sinkThresh  = flag.Int("sink-threshold", 0, "per-shard records buffered before a flush (0 = default 32)")
		sinkIvl     = flag.Duration("sink-interval", 0, "background flush interval (0 = default 500ms)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "reproserve: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	// Validate the spec gracefully; WithCounter would panic on it.
	if err := repro.CheckCounterSpec(*counterSpec); err != nil {
		log.Fatalf("reproserve: -counter: %v", err)
	}
	opts := []repro.Option{repro.WithCounter(*counterSpec), repro.WithWatchdog(*watchdog)}
	if *workers > 0 {
		opts = append(opts, repro.WithWorkers(*workers))
	}
	if *maxWorkers > 0 {
		opts = append(opts, repro.WithMaxWorkers(*maxWorkers))
	}

	var reg *gateway.Registry
	if *chaosMode {
		reg = gateway.Builtins()
		if err := reg.Register(gateway.WedgeTemplate()); err != nil {
			log.Fatalf("reproserve: -chaos: %v", err)
		}
		log.Printf("reproserve: chaos mode: hostile template %q registered", "wedge")
	}

	runSink, err := buildSink(*sinkSpec, *sinkThresh, *sinkIvl)
	if err != nil {
		log.Fatalf("reproserve: -sink: %v", err)
	}

	srv := gateway.NewServer(*addr, gateway.Config{
		RuntimeOptions:   opts,
		Registry:         reg,
		Sink:             runSink,
		QueueDepth:       *queueDepth,
		Dispatchers:      *dispatchers,
		TenantRate:       *tenantRate,
		TenantBurst:      *tenantBurst,
		PeggedWindow:     *pegged,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		ReapGrace:        *reapGrace,
		DegradedHoldDown: *holdDown,
	})
	if err := srv.Listen(); err != nil {
		log.Fatalf("reproserve: %v", err)
	}
	log.Printf("reproserve: serving on %s (templates: %v)", srv.Addr(), srv.G.Registry().Names())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := srv.Serve(ctx); err != nil {
		log.Fatalf("reproserve: %v", err)
	}
	log.Printf("reproserve: drained and stopped")
}

// buildSink parses the -sink spec grammar — ring[:N], jsonl:PATH[:MB],
// or an http(s) URL — and wraps the backend in a coalescing sink with
// the given tuning (0 keeps the sink's defaults).
func buildSink(spec string, threshold int, interval time.Duration) (*sink.Sink, error) {
	var opts []sink.Option
	if threshold > 0 {
		opts = append(opts, sink.WithThreshold(threshold))
	}
	if interval > 0 {
		opts = append(opts, sink.WithInterval(interval))
	}
	switch {
	case spec == "ring":
		return sink.New(sink.NewRing(0), opts...), nil
	case strings.HasPrefix(spec, "ring:"):
		n, err := strconv.Atoi(spec[len("ring:"):])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("ring capacity %q: want a positive integer", spec[len("ring:"):])
		}
		return sink.New(sink.NewRing(n), opts...), nil
	case strings.HasPrefix(spec, "jsonl:"):
		rest := spec[len("jsonl:"):]
		maxBytes := int64(64 << 20) // default 64 MB per segment
		// A trailing :MB is a rotation bound; a lone "jsonl:" is an error.
		if i := strings.LastIndexByte(rest, ':'); i > 0 {
			if mb, err := strconv.Atoi(rest[i+1:]); err == nil {
				if mb <= 0 {
					return nil, fmt.Errorf("jsonl rotation bound %q: want positive megabytes", rest[i+1:])
				}
				maxBytes = int64(mb) << 20
				rest = rest[:i]
			}
		}
		if rest == "" {
			return nil, fmt.Errorf("jsonl spec needs a path: jsonl:PATH[:MB]")
		}
		b, err := sink.NewJSONL(rest, maxBytes)
		if err != nil {
			return nil, err
		}
		return sink.New(b, opts...), nil
	case strings.HasPrefix(spec, "http://"), strings.HasPrefix(spec, "https://"):
		return sink.New(sink.NewHTTP(spec, nil), opts...), nil
	default:
		return nil, fmt.Errorf("unknown sink spec %q: want ring[:N] | jsonl:PATH[:MB] | http(s)://URL", spec)
	}
}
