// Command ppopp17bench regenerates the evaluation figures of the
// PPoPP'17 paper "Contention in Structured Concurrency" (Acar,
// Ben-David, Rainey): Figures 8-15 of the paper and its appendices,
// the stall-model contention experiment and the design ablations,
// plus the extensions of this reproduction — the contention-adaptive
// counter ("adaptive[:K[:batch]]" in every algorithm axis), the
// phase-shift, bursty-service, gateway serving, sink coalescing,
// chaos recovery, 1024-worker simulator and zipf hot-key experiments.
// DESIGN.md §4 indexes every figure id.
//
// Every kernel point is a harness.Spec measured on the cell that
// harness.NewCell builds — the same constructor the root go test
// -bench cells use — on an explicit flat or synthetic topology, so a
// figure point and the benchmark cell of the same Spec run the same
// runtime and kernel. Figure 13 runs fanin under flat and synthetic
// multi-node topologies on the real scheduler and reports the steal
// split (nb_local_steals/nb_remote_steals). -fig serve, sink and chaos
// drive an in-process gateway; -fig sim and the sim half of -fig zipf
// are deterministic from their seed, and -fig stalls from its own.
//
// Each figure writes one text table per paper plot and, with -format
// artifact, one key-value record per measured point in the format of
// the paper's artifact (appendix D.5). Records carry a `caveat`
// output when the host exposes fewer than 2 hardware threads, so
// readers of the records see the limitation EXPERIMENTS.md states in
// prose.
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
//	ppopp17bench -fig zipf -quick         # batch-threshold sweep on the hot-key skew
//	ppopp17bench -fig stalls -quick       # contention in the stall model
//	ppopp17bench -fig 8 -format artifact  # artifact-style result records
//	ppopp17bench -fig 8 -out results/     # write per-figure files
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
