package snzi

import (
	"sync"
	"testing"
)

func TestWeightedRootArriveDepart(t *testing.T) {
	tr := NewTree(0)
	r := tr.Root()
	if retries := r.ArriveRootN(5); retries != 0 {
		t.Fatalf("uncontended ArriveRootN retries = %d, want 0", retries)
	}
	if !tr.Query() {
		t.Fatal("surplus 5: query should be true")
	}
	if zero, _ := r.DepartRootN(3); zero {
		t.Fatal("depart 3 of 5 reported zero")
	}
	if !tr.Query() {
		t.Fatal("surplus 2 remaining, query should be true")
	}
	if zero, retries := r.DepartRootN(2); !zero || retries != 0 {
		t.Fatalf("final weighted depart = (%v, %d), want (true, 0)", zero, retries)
	}
	if tr.Query() {
		t.Fatal("drained tree should be zero")
	}
}

// TestWeightedMixesWithUnweighted pins that weighted and unit ops
// interleave on one root: a weighted arrive covers later unit departs
// and vice versa, with exactly one zero report at the true drain.
func TestWeightedMixesWithUnweighted(t *testing.T) {
	tr := NewTree(1)
	r := tr.Root()
	r.ArriveRootN(2) // 3
	if zero := r.Depart(); zero {
		t.Fatal("unit depart with surplus reported zero")
	}
	r.Arrive() // 3
	if zero, _ := r.DepartRootN(2); zero {
		t.Fatal("weighted depart with surplus reported zero")
	}
	if zero, _ := r.DepartRootN(1); !zero {
		t.Fatal("draining weighted depart did not report zero")
	}
	if tr.Query() {
		t.Fatal("tree should read zero after drain")
	}
	// Arrive-from-zero after a weighted drain must flip the indicator
	// back (the announce/version protocol survived the weighted path).
	r.ArriveRootN(1)
	if !tr.Query() {
		t.Fatal("arrive-from-zero after weighted drain: query false")
	}
	if zero, _ := r.DepartRootN(1); !zero {
		t.Fatal("second drain missing its zero report")
	}
}

func TestWeightedRootPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	tr := NewTree(1)
	r := tr.Root()
	mustPanic("ArriveRootN(0)", func() { r.ArriveRootN(0) })
	mustPanic("DepartRootN(0)", func() { r.DepartRootN(0) })
	mustPanic("DepartRootN underflow", func() { r.DepartRootN(2) })

	// Interior nodes refuse weighted ops: the half-unit phase-change
	// protocol is per-unit only.
	_, leaves := NewFixedTree(1, 2)
	mustPanic("ArriveRootN on interior", func() { leaves[0].ArriveRootN(1) })
	mustPanic("DepartRootN on interior", func() { leaves[0].DepartRootN(1) })
}

// TestWeightedRootConcurrent drains a known total surplus from many
// goroutines mixing weights; exactly one must observe the zero. A third
// of the goroutines move single units through Arrive/Depart instead,
// half at the root and half at grown children whose phase changes
// propagate to the root, so the unit and weighted paths of the one
// root protocol race on the same root word.
func TestWeightedRootConcurrent(t *testing.T) {
	const (
		goroutines = 12
		rounds     = 200
	)
	for it := 0; it < 20; it++ {
		tr := NewTree(0)
		r := tr.Root()
		left, right := r.Grow(true)
		unit := []*Node{r, left, r, right} // goroutines 0, 3, 6, 9
		// Pre-charge the full surplus each goroutine will depart, plus
		// one unit the main goroutine drains last.
		var wg sync.WaitGroup
		var zeros, retriesTotal int64
		var mu sync.Mutex
		r.ArriveRootN(1)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var localZeros, localRetries int64
				for i := 0; i < rounds; i++ {
					if g%3 == 0 {
						n := unit[g/3]
						n.Arrive()
						if n.Depart() {
							localZeros++
						}
						continue
					}
					k := uint64(g%4 + 1)
					localRetries += int64(r.ArriveRootN(k))
					zero, ret := r.DepartRootN(k)
					localRetries += int64(ret)
					if zero {
						localZeros++
					}
				}
				mu.Lock()
				zeros += localZeros
				retriesTotal += localRetries
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		if zeros != 0 {
			t.Fatalf("iter %d: %d zero reports while the main unit was live", it, zeros)
		}
		if zero, _ := r.DepartRootN(1); !zero {
			t.Fatalf("iter %d: final depart did not report zero", it)
		}
		if tr.Query() {
			t.Fatalf("iter %d: query true after drain", it)
		}
	}
}

// TestWeightedInstr: weighted ops count k units in the instrumentation
// (Arrives/Departs) but a single op against the per-node op counter —
// the accounting the coalescing ledger's "one RMW, many units" story
// rests on.
func TestWeightedInstr(t *testing.T) {
	tr := NewTree(0, WithInstrumentation())
	r := tr.Root()
	r.ArriveRootN(7)
	r.DepartRootN(4)
	r.DepartRootN(3)
	in := tr.Instr()
	if got := in.Arrives.Load(); got != 7 {
		t.Fatalf("instr arrives = %d, want 7", got)
	}
	if got := in.Departs.Load(); got != 7 {
		t.Fatalf("instr departs = %d, want 7", got)
	}
	if max, _ := tr.MaxOpsPerNode(); max != 3 {
		t.Fatalf("root ops = %d, want 3 (one per weighted op, not per unit)", max)
	}
}
