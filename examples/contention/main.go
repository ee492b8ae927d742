// Contention demonstrates the paper's central theoretical claim
// (Theorems 4.8/4.9) in the very model it is stated in: it runs the
// fanin workload in the simulated shared-memory stall model and prints
// stalls per counter operation as the simulated processor count grows.
//
// The fetch-and-add cell shows the Θ(P) contention of the
// general-concurrency lower bounds; the paper's in-counter stays flat
// — amortized O(1) — because the structured (series-parallel)
// discipline lets each operation touch mostly-private SNZI nodes.
//
// A second section runs the real runtime on the phase-shift workload
// (a low-contention prologue into a fan-in storm) under a configurable
// counter spec, and — for the contention-adaptive counter — prints
// which algorithm each run settled on: the fetch-and-add cell it was
// born as, or the in-counter it promoted to when the storm hit.
//
//	go run ./examples/contention
//	go run ./examples/contention -n 8192 -max 512
//	go run ./examples/contention -algo adaptive:8 -workers 4
//	go run ./examples/contention -algo dyn           # force the in-counter
//	go run ./examples/contention -workers 1 -maxworkers 4  # elastic pool
//
// With -maxworkers the live demo's worker pool is elastic (floor
// -workers, growing under sustained backlog, retiring after idling);
// the demo then runs the phase-shift storm on several concurrent lanes
// so the backlog actually materializes, and prints the spawn/retire
// counters next to the promotion verdict.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro"
	"repro/internal/stallsim"
	"repro/internal/workload"
)

func main() {
	var (
		n          = flag.Uint64("n", 2048, "fanin leaf count")
		max        = flag.Int("max", 256, "largest simulated processor count")
		algo       = flag.String("algo", "adaptive", "counter spec for the live demo: adaptive[:K] | dyn | fetchadd | snzi-D")
		workers    = flag.Int("workers", 0, "workers for the live demo (0 = GOMAXPROCS)")
		maxworkers = flag.Int("maxworkers", 0, "worker-pool ceiling for the live demo; > workers makes the pool elastic (0 = fixed)")
	)
	flag.Parse()

	algos := []stallsim.SimAlgorithm{
		stallsim.FetchAdd{},
		stallsim.FixedSNZI{Depth: 4},
		stallsim.Dynamic{Threshold: 1},
	}

	fmt.Printf("fanin (n=%d) in the Fich et al. stall model — stalls per counter operation\n\n", *n)
	fmt.Printf("%-12s", "P")
	for _, a := range algos {
		fmt.Printf("%12s", a.Name())
	}
	fmt.Println()
	for p := 1; p <= *max; p *= 2 {
		fmt.Printf("%-12d", p)
		for _, a := range algos {
			res := stallsim.RunFanin(stallsim.FaninConfig{Threads: p, N: *n, Algorithm: a, Seed: 7})
			fmt.Printf("%12.3f", res.StallsPerOp())
		}
		fmt.Println()
	}
	fmt.Println("\nfetchadd grows linearly in P; dyn stays constant (Theorem 4.9).")

	// Live demo: one finish counter through both contention regimes.
	if err := repro.CheckCounterSpec(*algo); err != nil {
		fmt.Fprintln(os.Stderr, "contention:", err)
		os.Exit(2)
	}
	rt := repro.NewRuntime(repro.WithWorkers(*workers), repro.WithMaxWorkers(*maxworkers), repro.WithCounter(*algo))
	defer rt.Close()
	pool := fmt.Sprintf("%d workers", rt.Workers())
	if *maxworkers > 0 {
		pool = fmt.Sprintf("%d..%d workers, elastic", rt.Workers(), *maxworkers)
	}
	fmt.Printf("\nlive runtime (%s, counter %q): phase-shift, %d prologue tasks then a %d-leaf storm\n",
		pool, *algo, *n/4, *n)

	// The canonical kernel (internal/workload.PhaseShift: calibrated
	// low-contention prologue, then the fan-in storm) rather than an
	// inline copy that could drift from what the benchmarks measure.
	before := rt.Stats().Promotions
	var res workload.Result
	if *maxworkers > 0 {
		// One computation is one injected root — no backlog, nothing to
		// spawn from. Run the storm on concurrent lanes so the elastic
		// pool has a burst to respond to.
		lanes := 2 * *maxworkers
		var wg sync.WaitGroup
		results := make([]workload.Result, lanes)
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				results[lane] = workload.PhaseShift(rt.Nested(), *n)
			}(lane)
		}
		wg.Wait()
		res = results[0]
	} else {
		res = workload.PhaseShift(rt.Nested(), *n)
	}
	fmt.Printf("%s\n", res)
	stats := rt.Stats()
	if *maxworkers > 0 {
		fmt.Printf("elastic pool: live=%d spawned=%d retired=%d (parked workers retire after idling)\n",
			stats.Workers, stats.SpawnedWorkers, stats.RetiredWorkers)
	}
	switch {
	case rt.Dag().Algorithm().Name() != "adaptive":
		fmt.Printf("counter %q is static — nothing to settle (vertices=%d steals=%d)\n",
			*algo, stats.Vertices, stats.Steals)
	case stats.Promotions > before:
		fmt.Printf("adaptive counter settled on the in-counter: the storm promoted %d counter(s)\n",
			stats.Promotions-before)
	default:
		fmt.Println("adaptive counter settled on fetch-and-add: no sustained contention observed (single core, or a polite schedule)")
	}
}
