package repro_test

// Tests for the production surface of package repro: errors and
// panics, context cancellation, typed futures, reductions, the
// default runtime, and multi-tenant Runtimes.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

func TestRunReturnsPanicAsError(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(2), repro.WithSeed(11))
	defer rt.Close()

	err := rt.Run(func(c *repro.Ctx) {
		c.Async(func(c *repro.Ctx) {
			c.Async(func(*repro.Ctx) { panic("deep panic") })
		})
	})
	var pe *repro.PanicError
	if !errors.As(err, &pe) || pe.Value != "deep panic" {
		t.Fatalf("err = %v, want PanicError{deep panic}", err)
	}

	// The acceptance bar: the same Runtime runs a fresh computation
	// correctly after the failure.
	var n atomic.Int64
	if err := rt.Run(func(c *repro.Ctx) {
		c.ParallelFor(0, 1000, 10, func(int) { n.Add(1) })
	}); err != nil {
		t.Fatalf("Run after failure: %v", err)
	}
	if n.Load() != 1000 {
		t.Fatalf("Run after failure did %d of 1000 iterations", n.Load())
	}
}

func TestRunContextCancellation(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(2), repro.WithSeed(12))
	defer rt.Close()

	// Already-cancelled context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := rt.RunContext(ctx, func(*repro.Ctx) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("task ran under a cancelled context")
	}

	// Mid-flight cancellation observed through the cooperative poll.
	ctx2, cancel2 := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel2()
	}()
	err := rt.RunContext(ctx2, func(c *repro.Ctx) {
		close(started)
		for c.Err() == nil {
			runtime.Gosched()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestGoFuturesJoinAtFinish(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(2), repro.WithSeed(13))
	defer rt.Close()

	got, err := repro.RunValue(rt, func(c *repro.Ctx, out *int) error {
		var fa, fb *repro.Future[int]
		c.FinishThen(func(c *repro.Ctx) {
			fa = repro.Go(c, func(*repro.Ctx) (int, error) { return 20, nil })
			fb = repro.Go(c, func(*repro.Ctx) (int, error) { return 22, nil })
		}, func(c *repro.Ctx) {
			a, err := fa.Result()
			if err != nil {
				t.Errorf("fa: %v", err)
			}
			b, err := fb.Result()
			if err != nil {
				t.Errorf("fb: %v", err)
			}
			*out = a + b
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("futures summed to %d, want 42", got)
	}
}

func TestGoErrorCancelsComputation(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(1), repro.WithSeed(14))
	defer rt.Close()

	sentinel := errors.New("worker failed")
	var after atomic.Int64
	err := rt.Run(func(c *repro.Ctx) {
		repro.Go(c, func(*repro.Ctx) (int, error) { return 0, sentinel })
		// With one worker the future above runs only after this task
		// yields, but these asyncs are queued after it (LIFO pops them
		// first) — they run, then the future fails; nothing else here.
		c.Async(func(*repro.Ctx) { after.Add(1) })
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if after.Load() != 1 {
		t.Fatalf("async queued before the failing future ran %d times, want 1 (LIFO order)", after.Load())
	}
}

// TestFutureMisuse reads a Future before its enclosing finish joined;
// with one worker the spawned task provably has not run, so Result
// must panic deterministically rather than race.
func TestFutureMisuse(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(1), repro.WithSeed(15))
	defer rt.Close()

	if err := rt.Run(func(c *repro.Ctx) {
		fut := repro.Go(c, func(*repro.Ctx) (int, error) { return 1, nil })
		if fut.Resolved() {
			t.Error("future resolved before its task could have run")
		}
		panicked := false
		func() {
			defer func() { panicked = recover() != nil }()
			fut.Result()
		}()
		if !panicked {
			t.Error("Result before the finish join did not panic")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGoAfterCancellationResolvesWithError(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(1), repro.WithSeed(16))
	defer rt.Close()

	sentinel := errors.New("already failed")
	_ = rt.Run(func(c *repro.Ctx) {
		c.Fail(sentinel)
		fut := repro.Go(c, func(*repro.Ctx) (int, error) { return 7, nil })
		if !fut.Resolved() {
			t.Error("future of a cancelled computation not resolved")
		}
		if _, err := fut.Result(); !errors.Is(err, sentinel) {
			t.Errorf("future err = %v, want %v", err, sentinel)
		}
	})
}

// TestFutureSkippedByCancellation: the computation fails after the
// future's task is spawned but (with one worker) before it can run, so
// the task's body is skipped; Result must report the computation's
// error rather than panic as unresolved.
func TestFutureSkippedByCancellation(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(1), repro.WithSeed(21))
	defer rt.Close()

	var fut *repro.Future[int]
	err := rt.Run(func(c *repro.Ctx) {
		fut = repro.Go(c, func(*repro.Ctx) (int, error) { return 5, nil })
		panic("before the future ran")
	})
	if err == nil {
		t.Fatal("no error from panicking run")
	}
	if !fut.Resolved() {
		t.Fatal("future skipped by cancellation reports unresolved")
	}
	if _, ferr := fut.Result(); ferr == nil {
		t.Fatal("future skipped by cancellation returned nil error")
	}
}

func TestParallelReducePreservesOrder(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(4), repro.WithSeed(17))
	defer rt.Close()

	// Non-commutative combine: concatenation. The reduction must keep
	// chunks in index order.
	want := "abcdefghijklmnopqrstuvwxyz"
	got, err := repro.ParallelReduce(rt, 0, 26, 3,
		func(lo, hi int) string { return want[lo:hi] },
		func(a, b string) string { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reduce = %q, want %q", got, want)
	}
}

func TestParallelReduceSumAndEmpty(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(4), repro.WithSeed(18))
	defer rt.Close()

	sum, err := repro.ParallelReduce(rt, 1, 101, 7,
		func(lo, hi int) int {
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			return s
		},
		func(a, b int) int { return a + b })
	if err != nil || sum != 5050 {
		t.Fatalf("sum = %d, %v; want 5050, nil", sum, err)
	}

	empty, err := repro.ParallelReduce(rt, 5, 5, 1,
		func(lo, hi int) int { return 1 },
		func(a, b int) int { return a + b })
	if err != nil || empty != 0 {
		t.Fatalf("empty reduce = %d, %v; want 0, nil", empty, err)
	}
}

func TestParallelReduceLeafPanicSurfaces(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(2), repro.WithSeed(19))
	defer rt.Close()

	_, err := repro.ParallelReduce(rt, 0, 100, 5,
		func(lo, hi int) int {
			if lo >= 50 {
				panic("leaf exploded")
			}
			return hi - lo
		},
		func(a, b int) int { return a + b })
	var pe *repro.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
}

func TestDoUsesDefaultRuntime(t *testing.T) {
	var n atomic.Int64
	if err := repro.Do(func(c *repro.Ctx) {
		c.ParallelFor(0, 500, 16, func(int) { n.Add(1) })
	}); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 500 {
		t.Fatalf("default runtime did %d of 500 iterations", n.Load())
	}
	if repro.Default() != repro.Default() {
		t.Fatal("Default not a singleton")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := repro.DoContext(ctx, func(*repro.Ctx) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DoContext on cancelled ctx = %v", err)
	}
}

func TestRuntimeCloseContract(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(2))
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rt.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := rt.Run(func(*repro.Ctx) {}); !errors.Is(err, repro.ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	if _, err := repro.RunValue(rt, func(*repro.Ctx, *int) error { return nil }); !errors.Is(err, repro.ErrClosed) {
		t.Fatalf("RunValue after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentRunsPublic is the acceptance-criteria shape: two
// goroutines calling rt.Run concurrently on one Runtime, both
// completing correctly (run under -race in CI).
func TestConcurrentRunsPublic(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(4), repro.WithSeed(20))
	defer rt.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	sums := make([]int64, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sum atomic.Int64
			errs[g] = rt.Run(func(c *repro.Ctx) {
				c.ParallelFor(0, 4096, 64, func(i int) { sum.Add(int64(i)) })
			})
			sums[g] = sum.Load()
		}(g)
	}
	wg.Wait()
	const want = 4096 * 4095 / 2
	for g := 0; g < 2; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if sums[g] != want {
			t.Fatalf("goroutine %d: sum = %d, want %d (cross-signalled finish counters?)", g, sums[g], want)
		}
	}
}

// TestWithCounterSpecs: the spec-string option configures the
// algorithm the runtime actually uses, defaults included; malformed
// specs panic at construction.
func TestWithCounterSpecs(t *testing.T) {
	for _, spec := range []string{"adaptive", "adaptive:50", "dyn", "fetchadd", "snzi-2"} {
		rt := repro.NewRuntime(repro.WithWorkers(1), repro.WithCounter(spec))
		if err := rt.Run(func(c *repro.Ctx) {
			c.ParallelFor(0, 64, 8, func(int) {})
		}); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		want := spec
		if i := strings.IndexByte(spec, ':'); i >= 0 {
			want = spec[:i]
		}
		if got := rt.Dag().Algorithm().Name(); got != want {
			t.Errorf("WithCounter(%q) runtime uses %q", spec, got)
		}
		rt.Close()
	}

	defer func() {
		if recover() == nil {
			t.Fatal("WithCounter with a malformed spec did not panic")
		}
	}()
	repro.NewRuntime(repro.WithCounter("adaptive:bogus"))
}

// TestDefaultAlgorithmIsAdaptive: an unconfigured Runtime uses the
// contention-adaptive counter, and Stats exposes its promotion count
// (zero on an uncontended run).
func TestDefaultAlgorithmIsAdaptive(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(1))
	defer rt.Close()
	if got := rt.Dag().Algorithm().Name(); got != "adaptive" {
		t.Fatalf("default algorithm = %q, want adaptive", got)
	}
	if err := rt.Run(func(c *repro.Ctx) {
		c.ParallelFor(0, 256, 16, func(int) {})
	}); err != nil {
		t.Fatal(err)
	}
	if p := rt.Stats().Promotions; p != 0 {
		t.Fatalf("single-worker run promoted %d counters, want 0", p)
	}
}

// TestStatsPromotionsUnderContention: with a promotion threshold of 1
// and parallel workers hammering one finish block, at least one
// counter should migrate, and Stats must surface it. Contention is
// scheduling-dependent (a 1-CPU host may interleave too politely, and a
// freshly started process often runs its first rounds without a single
// overlap), so the assertion is made eventually across rounds and skips
// rather than fails when the host cannot produce a single collision.
func TestStatsPromotionsUnderContention(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥ 2 Ps for cell collisions")
	}
	rt := repro.NewRuntime(
		repro.WithWorkers(4),
		repro.WithCounter("adaptive:1"),
	)
	defer rt.Close()
	const rounds = 1000 // returns at the first promotion; ~1 s if none comes
	for round := 0; round < rounds; round++ {
		if err := rt.Run(func(c *repro.Ctx) {
			c.ParallelFor(0, 1<<12, 1, func(int) {})
		}); err != nil {
			t.Fatal(err)
		}
		if rt.Stats().Promotions > 0 {
			return
		}
	}
	t.Skipf("no cell collision observed in %d contended rounds (single-core host?)", rounds)
}

func TestPanicErrorFormatting(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(1))
	defer rt.Close()
	err := rt.Run(func(*repro.Ctx) { panic(fmt.Errorf("wrapped %d", 7)) })
	if err == nil || !strings.Contains(err.Error(), "task panicked: wrapped 7") {
		t.Fatalf("err = %v", err)
	}
}
