// Fib is the paper's running example (Figure 4): the classic parallel
// Fibonacci, spawning both recursive calls and joining at a finish
// point. It demonstrates fork/join over the sp-dag runtime and lets
// you compare dependency-counter algorithms:
//
//	go run ./examples/fib -n 30 -algo dyn
//	go run ./examples/fib -n 30 -algo fetchadd
//	go run ./examples/fib -n 30 -algo snzi-4
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro"
)

func fib(c *repro.Ctx, n int, dest *uint64) {
	if n <= 1 {
		*dest = uint64(n)
		return
	}
	var a, b uint64
	c.ForkJoinThen(
		func(c *repro.Ctx) { fib(c, n-1, &a) },
		func(c *repro.Ctx) { fib(c, n-2, &b) },
		func(*repro.Ctx) { *dest = a + b },
	)
}

func fibSeq(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func main() {
	var (
		n       = flag.Int("n", 27, "Fibonacci index")
		algo    = flag.String("algo", "dyn", "dependency counter: fetchadd | dyn | snzi-D")
		workers = flag.Int("procs", 0, "workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if err := repro.CheckCounterSpec(*algo); err != nil {
		log.Fatal(err)
	}
	rt := repro.NewRuntime(repro.WithWorkers(*workers), repro.WithCounter(*algo))
	defer rt.Close()

	start := time.Now()
	result, err := repro.RunValue(rt, func(c *repro.Ctx, out *uint64) error {
		fib(c, *n, out)
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}

	if want := fibSeq(*n); result != want {
		log.Fatalf("fib(%d) = %d, want %d", *n, result, want)
	}
	st := rt.Stats()
	fmt.Printf("fib(%d) = %d  [algo=%s workers=%d time=%v vertices=%d]\n",
		*n, result, *algo, st.Workers, elapsed, st.Vertices)
}
