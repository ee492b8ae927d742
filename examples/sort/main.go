// Sort is a realistic nested-parallel application on the public API: a
// parallel mergesort whose recursive splits are ForkJoins and whose
// merge phase runs the two halves' merges in parallel too. It is the
// kind of divide-and-conquer workload the paper's introduction
// motivates: the number of fine-grained tasks depends on the input
// size, so the runtime's dependency counters must grow and shrink
// dynamically — a static SNZI tree or a single atomic cell serves it
// poorly.
//
//	go run ./examples/sort -n 2000000
//	go run ./examples/sort -n 2000000 -algo fetchadd
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"repro"
)

const grain = 1 << 13

func mergesort(c *repro.Ctx, xs, buf []int32) {
	if len(xs) <= grain {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return
	}
	mid := len(xs) / 2
	c.ForkJoinThen(
		func(c *repro.Ctx) { mergesort(c, xs[:mid], buf[:mid]) },
		func(c *repro.Ctx) { mergesort(c, xs[mid:], buf[mid:]) },
		func(c *repro.Ctx) { merge(c, xs, mid, buf) },
	)
}

// merge merges the two sorted halves of xs through buf, splitting the
// merge itself in parallel around the median.
func merge(c *repro.Ctx, xs []int32, mid int, buf []int32) {
	left, right := xs[:mid], xs[mid:]
	if len(xs) <= 2*grain {
		seqMerge(left, right, buf)
		copy(xs, buf[:len(xs)])
		return
	}
	// Split: take the middle of the larger half, binary-search its
	// counterpart in the other, merge the two quadrant pairs in
	// parallel.
	i := len(left) / 2
	j := sort.Search(len(right), func(k int) bool { return right[k] >= left[i] })
	c.ForkJoinThen(
		func(*repro.Ctx) {
			seqMerge(left[:i], right[:j], buf[:i+j])
		},
		func(*repro.Ctx) {
			seqMerge(left[i:], right[j:], buf[i+j:len(xs)])
		},
		func(*repro.Ctx) {
			copy(xs, buf[:len(xs)])
		},
	)
}

func seqMerge(a, b, out []int32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

func main() {
	var (
		n       = flag.Int("n", 1<<21, "elements to sort")
		algo    = flag.String("algo", "dyn", "dependency counter: fetchadd | dyn | snzi-D")
		workers = flag.Int("procs", 0, "workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if err := repro.CheckCounterSpec(*algo); err != nil {
		log.Fatal(err)
	}
	rt := repro.NewRuntime(repro.WithWorkers(*workers), repro.WithCounter(*algo))
	defer rt.Close()

	xs := make([]int32, *n)
	rnd := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = rnd.Int31()
	}
	buf := make([]int32, *n)

	start := time.Now()
	if err := rt.Run(func(c *repro.Ctx) { mergesort(c, xs, buf) }); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		log.Fatal("output not sorted")
	}
	st := rt.Stats()
	fmt.Printf("sorted %d int32s in %v  [algo=%s workers=%d vertices=%d]\n",
		*n, elapsed, *algo, st.Workers, st.Vertices)
}
