package repro_test

import (
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/counter"
)

// These tests exercise the supported public surface exactly the way
// the README and examples present it.

func TestPublicQuickstart(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(2), repro.WithSeed(1))
	defer rt.Close()

	const n = 1 << 14
	xs := make([]int64, n)
	if err := rt.Run(func(c *repro.Ctx) {
		c.ParallelFor(0, n, 256, func(i int) { xs[i] = int64(i) * 2 })
	}); err != nil {
		t.Fatal(err)
	}
	var want, got int64
	for i, x := range xs {
		want += int64(i) * 2
		got += x
	}
	if got != want {
		t.Fatalf("parallel map wrong: %d vs %d", got, want)
	}
}

// TestPublicAlgorithms runs a fan-in on every counter the paper
// evaluates, each selected by its artifact spec string.
func TestPublicAlgorithms(t *testing.T) {
	for _, spec := range []string{"adaptive", "fetchadd", "dyn", "snzi-3"} {
		rt := repro.NewRuntime(repro.WithWorkers(2), repro.WithCounter(spec), repro.WithSeed(2))
		var count atomic.Int64
		if err := rt.Run(func(c *repro.Ctx) {
			for i := 0; i < 64; i++ {
				c.Async(func(*repro.Ctx) { count.Add(1) })
			}
		}); err != nil {
			t.Fatal(err)
		}
		rt.Close()
		if count.Load() != 64 {
			t.Fatalf("counter %s: %d asyncs ran", spec, count.Load())
		}
	}
}

// TestPublicCheckCounterSpec: the validator accepts every spec
// WithCounter accepts and rejects, without panicking, what it would
// panic on.
func TestPublicCheckCounterSpec(t *testing.T) {
	for _, spec := range []string{"adaptive", "adaptive:8", "adaptive:8:64", "fetchadd", "dyn", "snzi-3"} {
		if err := repro.CheckCounterSpec(spec); err != nil {
			t.Fatalf("CheckCounterSpec(%q) = %v", spec, err)
		}
	}
	for _, spec := range []string{"nope", "adaptive:bogus", "snzi-x", ""} {
		if repro.CheckCounterSpec(spec) == nil {
			t.Fatalf("CheckCounterSpec(%q) accepted a bad spec", spec)
		}
	}
}

// TestPublicDefaultThreshold: the paper's grow threshold (25·workers,
// §5) is resolved at construction from the final worker count, even
// when WithCounter is listed before WithWorkers.
func TestPublicDefaultThreshold(t *testing.T) {
	rt := repro.NewRuntime(repro.WithCounter("dyn"), repro.WithWorkers(40))
	defer rt.Close()
	if d, ok := rt.Dag().Algorithm().(counter.Dynamic); !ok || d.Threshold != 1000 {
		t.Fatalf("dyn on 40 workers: algorithm %+v, want threshold 1000 (25·40)", rt.Dag().Algorithm())
	}
}

// TestPublicFibEndToEnd is the paper's running example through the
// public API on several algorithms, at enough scale for real stealing.
func TestPublicFibEndToEnd(t *testing.T) {
	var fib func(c *repro.Ctx, n int, dest *uint64)
	fib = func(c *repro.Ctx, n int, dest *uint64) {
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
	rt := repro.NewRuntime(repro.WithSeed(7))
	defer rt.Close()
	out, err := repro.RunValue(rt, func(c *repro.Ctx, out *uint64) error {
		fib(c, 21, out)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != 10946 {
		t.Fatalf("fib(21) = %d", out)
	}
}
