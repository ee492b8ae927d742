package sched

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/spdag"
)

// cpuTime returns the process's cumulative user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// waitParked polls until every worker of s has parked.
func waitParked(t *testing.T, s *Scheduler, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for s.ParkedWorkers() != s.NumWorkers() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers parked after %v",
				s.ParkedWorkers(), s.NumWorkers(), within)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleWorkersPark: a started scheduler with no work quiesces with
// every worker parked — no spin loops, no sleep-polling — and still
// wakes up for new submissions. This is the "idle Runtime costs ~0
// CPU" acceptance criterion in testable form.
func TestIdleWorkersPark(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	t.Run("chase-lev", func(t *testing.T) {
		s := New(4, WithSeed(3))
		d := spdag.New(counter.FetchAdd{}, spdag.WithScheduler(s.Submit))
		s.Start()
		defer s.Shutdown()

		// Freshly started, no work: everyone parks.
		waitParked(t, s, 5*time.Second)

		// Submissions into a fully parked scheduler still execute
		// (the wake path), and the scheduler re-parks afterwards.
		for round := 0; round < 3; round++ {
			var executed atomic.Int64
			body := func(*spdag.Vertex) { executed.Add(1) }
			const n = 100
			for i := 0; i < n; i++ {
				v := d.NewVertex(nil, nil, 0)
				v.SetBody(body)
				v.TrySchedule()
			}
			deadline := time.Now().Add(10 * time.Second)
			for executed.Load() < n {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: executed %d of %d after wake-up", round, executed.Load(), n)
				}
				time.Sleep(time.Millisecond)
			}
			waitParked(t, s, 5*time.Second)
		}
	})
}

// TestParkedWorkersBurnNoCPU measures actual CPU consumption of a
// parked scheduler: over a 300ms idle window the whole process must
// use well under one busy core. Before worker parking, 4 idle workers
// sleep-polled at ~50k wakeups/s each and burned several percent of a
// core even on this host.
func TestParkedWorkersBurnNoCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	s := New(4, WithSeed(5))
	s.Start()
	defer s.Shutdown()
	waitParked(t, s, 5*time.Second)

	start := cpuTime()
	time.Sleep(300 * time.Millisecond)
	used := cpuTime() - start
	// Generous bound: 10% of one core over the window (the test process
	// itself, the runtime, and the race detector all contribute).
	if limit := 30 * time.Millisecond; used > limit {
		t.Fatalf("idle scheduler used %v CPU over 300ms (limit %v) — workers are not parked", used, limit)
	}
}

// TestElasticIdleQuiesceBurnsNoCPU extends the idle-cost criterion to
// the elastic pool: a Runtime sized 1..8 that just served a burst must
// shed the extra workers and then cost ~0 CPU — the combination the
// elastic pool exists for (a fixed 8-worker pool would hold 8 deques,
// stacks, and steal-loop participants through the idle window; a pool
// that failed to quiesce would burn timer wake-ups forever).
func TestElasticIdleQuiesceBurnsNoCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	const max = 8
	s := New(1, WithSeed(11), WithMaxWorkers(max), WithRetireAfter(10*time.Millisecond))
	d := spdag.New(counter.FetchAdd{}, spdag.WithScheduler(s.Submit))
	s.Start()
	defer s.Shutdown()

	// Grow the pool deterministically: wedge every spawnable worker on
	// a blocking vertex while submissions keep arriving. release must
	// close before the deferred Shutdown (deferred later, so it runs
	// first), or a failure would strand the wedged workers and hang
	// Shutdown's wait.
	release := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	var blocked atomic.Int64
	submit := func(body spdag.Body) {
		v := d.NewVertex(nil, nil, 0)
		v.SetBody(body)
		v.TrySchedule()
	}
	for i := 0; i < max; i++ {
		submit(func(*spdag.Vertex) { blocked.Add(1); <-release })
		time.Sleep(time.Millisecond)
	}
	// Every spawn needs a run of backlogged wake attempts; keep feeding
	// no-op submissions until the whole pool is wedged.
	deadline := time.Now().Add(10 * time.Second)
	for blocked.Load() != max {
		if time.Now().After(deadline) {
			t.Fatalf("pool did not grow: %d of %d workers wedged (live=%d)", blocked.Load(), max, s.NumWorkers())
		}
		submit(func(*spdag.Vertex) {})
		time.Sleep(time.Millisecond)
	}
	released = true
	close(release)

	// Quiesce: back to the 1-worker floor, that worker parked.
	deadline = time.Now().Add(10 * time.Second)
	for s.NumWorkers() != 1 || s.ParkedWorkers() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("pool did not quiesce: live=%d parked=%d retired=%d",
				s.NumWorkers(), s.ParkedWorkers(), s.RetiredWorkers())
		}
		time.Sleep(time.Millisecond)
	}

	start := cpuTime()
	time.Sleep(300 * time.Millisecond)
	used := cpuTime() - start
	if limit := 30 * time.Millisecond; used > limit {
		t.Fatalf("idle elastic scheduler used %v CPU over 300ms (limit %v) after quiescing to the floor", used, limit)
	}
}

// TestShutdownWakesParkedWorkers: Shutdown must not hang on parked
// workers.
func TestShutdownWakesParkedWorkers(t *testing.T) {
	s := New(4, WithSeed(9))
	s.Start()
	waitParked(t, s, 5*time.Second)
	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on parked workers")
	}
}
