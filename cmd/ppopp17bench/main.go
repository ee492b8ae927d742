// Command ppopp17bench regenerates the evaluation figures of the
// PPoPP'17 paper "Contention in Structured Concurrency" (Acar,
// Ben-David, Rainey): Figures 8-15 of the paper and its appendices,
// the stall-model contention experiment, and the design ablations —
// plus three extensions beyond the paper: the contention-adaptive
// counter ("adaptive[:K]" in every algorithm axis; Figure 8 carries an
// adaptive series), the phase-shift experiment (-fig phase), whose
// table includes how many counters the adaptive algorithm promoted —
// i.e. which algorithm it settled on (also emitted as nb_promotions in
// artifact records) — and the bursty-service experiment (-fig burst),
// which compares fixed-min, fixed-max, and elastic worker pools on
// alternating idle gaps and fan-out storms (throughput, peak and
// steady resident workers, spawn/retire counts).
//
// Figure 13 (-fig 13) runs the NUMA study on the real scheduler:
// fanin under a flat vs synthetic multi-node topologies, exercising
// the two-phase local-then-remote steal order and per-node vertex
// pools, with the steal-locality split emitted as
// nb_local_steals/nb_remote_steals. Artifact records additionally
// carry a `caveat` output when the host exposes fewer than 2 hardware
// threads, so readers of the JSON see the measurement limitation
// EXPERIMENTS.md states in prose.
//
// The serving experiment (-fig serve) is a further extension: it
// boots the internal/gateway HTTP front-end over a fresh runtime and
// drives it with the open-loop workload generator at 0.5x/1x/2x the
// host's estimated capacity, reporting completed throughput, shed
// rate, and p50/p95/p99 per offered-load step (artifact outputs
// nb_sent/nb_completed/nb_shed, shed_rate, throughput_req_per_sec,
// p50_ms/p95_ms/p99_ms).
//
// The sink experiment (-fig sink) drives the async v1 lifecycle —
// open-loop async submissions polled to completion — against a
// gateway whose run-record sink sweeps the write-coalescing threshold
// (1, 8, 32, 128), reporting the sink's logical-writes vs
// backend-calls ledger and the write-reduction ratio alongside
// completion quantiles (artifact outputs nb_logical_writes,
// nb_backend_calls, coalesce_ratio, p50_ms/p99_ms; DESIGN.md §11).
//
// The chaos experiment (-fig chaos) is the self-defense recovery
// timeline of DESIGN.md §10: a gateway under steady load is handed
// one hostile wedge-template request (busy-spins ignoring
// cancellation) with a deadline far shorter than its spin, and the
// per-tick table shows the arc — inject, hung-request reap (504) at
// deadline+grace, degraded hold-down shedding 503s, recovery
// (artifact outputs nb_reaped, nb_degraded_trips, nb_shed_degraded,
// recover_tick). It runs on a stock production build; the injected
// fault matrix lives in the chaostest-tagged test suite instead.
//
// Usage:
//
//	ppopp17bench -fig all                 # every figure, host-scaled defaults
//	ppopp17bench -fig 8,9 -n 8388608      # paper-scale fanin figures
//	ppopp17bench -fig phase               # prologue-into-storm, adaptive promotion
//	ppopp17bench -fig burst               # elastic vs fixed pools on bursty storms
//	ppopp17bench -fig 13                  # topology study on the real scheduler
//	ppopp17bench -fig serve               # gateway offered-load sweep (throughput/shed/p99)
//	ppopp17bench -fig sink                # run-record sink coalescing threshold sweep
//	ppopp17bench -fig chaos               # self-defense recovery timeline (reap/degrade/recover)
//	ppopp17bench -fig sim                 # deterministic scheduler replay at 1024 simulated workers
//	ppopp17bench -fig stalls -quick       # contention in the stall model
//	ppopp17bench -fig 8 -format artifact  # artifact-style result records
//	ppopp17bench -fig 8 -out results/     # write per-figure files
//
// Output is one text table per figure (same rows/series as the paper's
// plots); -format artifact additionally emits the key-value record
// format of the paper's artifact (appendix D.5).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/harness"
)

func main() {
	var (
		figs     = flag.String("fig", "all", "comma-separated figure ids ("+strings.Join(harness.FigureOrder(), ",")+") or 'all'")
		n        = flag.Uint64("n", 0, "problem size override (0 = per-figure default)")
		runs     = flag.Int("runs", 0, "measured repetitions per point (0 = default: 3, artifact used 30)")
		maxProcs = flag.Int("maxprocs", 0, "top of the cores sweep (0 = GOMAXPROCS)")
		quick    = flag.Bool("quick", false, "shrink sweeps and sizes for a fast smoke run")
		format   = flag.String("format", "table", "output format: table | artifact | both")
		outDir   = flag.String("out", "", "directory to write per-figure result files (default: stdout only)")
		verbose  = flag.Bool("v", false, "print progress for every measurement point")
	)
	flag.Parse()

	opt := harness.Options{N: *n, MaxProcs: *maxProcs, Runs: *runs, Quick: *quick}
	if *verbose {
		opt.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  ... "+s) }
	}

	var ids []string
	if *figs == "all" {
		ids = harness.FigureOrder()
	} else {
		ids = strings.Split(*figs, ",")
	}
	registry := harness.Figures()
	for _, id := range ids {
		id = strings.TrimSpace(id)
		driver := registry[id]
		if driver == nil {
			fmt.Fprintf(os.Stderr, "ppopp17bench: unknown figure %q (known: %s)\n",
				id, strings.Join(harness.FigureOrder(), ", "))
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "running figure %s...\n", id)
		rep, err := driver(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppopp17bench: figure %s: %v\n", id, err)
			os.Exit(1)
		}
		var out strings.Builder
		if *format == "table" || *format == "both" {
			out.WriteString(rep.Render())
			out.WriteString("\n")
		}
		if *format == "artifact" || *format == "both" {
			if _, err := rep.Artifact().WriteTo(&out); err != nil {
				fmt.Fprintf(os.Stderr, "ppopp17bench: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Print(out.String())
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "ppopp17bench: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, "figure_"+id+".txt")
			if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ppopp17bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
}
