// Fanin runs the paper's headline benchmark (Figure 6) interactively:
// n tasks created by recursive binary asyncs, all synchronizing at one
// finish block — the worst case for a dependency counter, since every
// task's creation and termination hits the same counter. It prints the
// per-core throughput and the size the in-counter's SNZI tree grew to
// (the artifact's nb_incounter_nodes).
//
//	go run ./examples/fanin -n 1048576 -algo dyn
//	go run ./examples/fanin -n 1048576 -algo fetchadd -procs 2
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

func main() {
	var (
		n       = flag.Uint64("n", 1<<20, "number of leaf tasks")
		algo    = flag.String("algo", "dyn", "dependency counter: fetchadd | dyn | snzi-D")
		workers = flag.Int("procs", 0, "workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if err := repro.CheckCounterSpec(*algo); err != nil {
		log.Fatal(err)
	}
	rt := repro.NewRuntime(repro.WithWorkers(*workers), repro.WithCounter(*algo))
	defer rt.Close()

	res := workload.Fanin(rt.Nested(), *n)
	fmt.Printf("bench=fanin algo=%s procs=%d n=%d\n", *algo, rt.Workers(), *n)
	fmt.Printf("  time            %v\n", res.Elapsed)
	fmt.Printf("  counter ops     %d\n", res.CounterOps)
	fmt.Printf("  ops/sec/core    %.0f\n", res.OpsPerSecPerCore())
	fmt.Printf("  incounter nodes %d\n", res.FinalNodes)
	fmt.Printf("  steals          %d\n", rt.Stats().Steals)
}
