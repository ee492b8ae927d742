package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/spdag"
)

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition %q not reached within %v", what, within)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestElasticOptionsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithMaxWorkers below the minimum did not panic")
		}
	}()
	New(4, WithMaxWorkers(2))
}

func TestElasticString(t *testing.T) {
	s := New(1, WithMaxWorkers(4))
	if got, want := s.String(), "sched.Scheduler{workers=1..4, live=1}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if s.MinWorkers() != 1 || s.MaxWorkers() != 4 || s.NumWorkers() != 1 {
		t.Fatalf("min/max/live = %d/%d/%d", s.MinWorkers(), s.MaxWorkers(), s.NumWorkers())
	}
	// A fixed pool keeps the pre-elastic format and never moves.
	if got, want := New(2).String(), "sched.Scheduler{workers=2}"; got != want {
		t.Fatalf("fixed String = %q, want %q", got, want)
	}
}

// TestElasticSpawnOnSustainedBacklog drives the spawn signal
// deterministically: the pool floor is one worker, that worker is
// wedged on a blocking vertex, and further submissions pile up in the
// injector. The sustained backlog must spawn workers (up to max) that
// execute the backlog even though the floor worker never comes back,
// and once everything drains and the gap outlasts RetireAfter, the
// pool must quiesce back to the floor with spawn/retire accounting
// balanced.
func TestElasticSpawnOnSustainedBacklog(t *testing.T) {
	requireParallelism(t)
	t.Run("chase-lev", func(t *testing.T) {
		const max = 4
		// Retirement runs on a manual clock: the window elapses only
		// when this test advances it, so quiescing is a scripted
		// decision, not a race against wall-clock sleeps.
		clk := NewManualClock(time.Unix(0, 0))
		s := New(1, WithSeed(5), WithMaxWorkers(max), WithRetireAfter(5*time.Millisecond), WithClock(clk))
		d := spdag.New(counter.FetchAdd{}, spdag.WithScheduler(s.Submit))
		s.Start()
		defer s.Shutdown()

		release := make(chan struct{})
		var blocked, executed atomic.Int64
		blocker := func(*spdag.Vertex) {
			blocked.Add(1)
			<-release
		}
		noop := func(*spdag.Vertex) { executed.Add(1) }

		submit := func(body spdag.Body) {
			v := d.NewVertex(nil, nil, 0)
			v.SetBody(body)
			v.TrySchedule()
		}

		// Wedge every worker the pool can spawn, then stack no-ops
		// behind them. Submissions are spaced so each one is a
		// distinct wake attempt observing the surviving backlog.
		const noops = 6
		for i := 0; i < max; i++ {
			submit(blocker)
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < noops; i++ {
			submit(noop)
			time.Sleep(time.Millisecond)
		}
		waitCond(t, 10*time.Second, "pool grew to max", func() bool {
			return s.NumWorkers() == max && blocked.Load() == max
		})
		if got := s.SpawnedWorkers(); got != max-1 {
			t.Fatalf("SpawnedWorkers = %d, want %d", got, max-1)
		}
		if executed.Load() != 0 {
			t.Fatalf("no-ops ran while every worker should be wedged")
		}

		// Release the blockers: the no-op backlog drains, and the
		// idle pool retires back to the floor. Workers arm their
		// retirement timers as they park; advancing the clock one
		// full window per probe fires whichever timers are armed by
		// then, so every parked-above-floor worker retires no matter
		// how its park interleaves with the probes.
		close(release)
		waitCond(t, 10*time.Second, "backlog drained", func() bool {
			return executed.Load() == noops
		})
		waitCond(t, 10*time.Second, "pool quiesced to the floor", func() bool {
			clk.Advance(5 * time.Millisecond)
			return s.NumWorkers() == 1 && s.ParkedWorkers() == 1 &&
				s.RetiredWorkers() == s.SpawnedWorkers()
		})
	})
}

// TestElasticSequentialRunsNeverSpawn: one-shot submissions — each
// fully drained before the next — are spikes, not sustained backlog,
// and must not grow the pool. The manual clock never advances, so the
// assertion is time-independent by construction: no retirement window
// can elapse, and the spawn decision is pressure-only.
func TestElasticSequentialRunsNeverSpawn(t *testing.T) {
	s := New(1, WithSeed(7), WithMaxWorkers(4), WithRetireAfter(time.Millisecond),
		WithClock(NewManualClock(time.Unix(0, 0))))
	d := spdag.New(counter.FetchAdd{}, spdag.WithScheduler(s.Submit))
	s.Start()
	defer s.Shutdown()
	for i := 0; i < 50; i++ {
		s.Run(d, func(*spdag.Vertex) {})
	}
	if got := s.SpawnedWorkers(); got != 0 {
		t.Fatalf("sequential one-shot runs spawned %d workers", got)
	}
}

// TestElasticChurnStress cycles burst → idle → burst with a retirement
// threshold shorter than the idle gaps, so every round retires workers
// that the next round must respawn — the interleavings where a lost
// wake-up or a vertex leak would show up as a hang (watchdog) or a wrong leaf count
// (shadow live-count: every Run's executed leaves are checked against
// the tree size). After the last round the pool must return to the
// floor.
func TestElasticChurnStress(t *testing.T) {
	requireParallelism(t)
	t.Run("chase-lev", func(t *testing.T) {
		rounds := 60
		if testing.Short() {
			rounds = 10
		}
		const (
			min   = 1
			max   = 4
			lanes = 4
			depth = 6
		)
		s := New(min, WithSeed(29), WithMaxWorkers(max), WithRetireAfter(time.Millisecond))
		d := spdag.New(counter.Dynamic{Threshold: 2}, spdag.WithScheduler(s.Submit))
		s.Start()
		defer s.Shutdown()

		errc := make(chan error, 1)
		go func() {
			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				var leaves atomic.Int64
				for lane := 0; lane < lanes; lane++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						s.Run(d, func(u *spdag.Vertex) { spawnTree(u, depth, &leaves) })
					}()
				}
				wg.Wait()
				if got, want := leaves.Load(), int64(lanes<<depth); got != want {
					errc <- fmt.Errorf("round %d: %d leaves, want %d (lost vertices)", round, got, want)
					return
				}
				// Idle past the retirement threshold so the next burst
				// starts against a shrunken pool.
				time.Sleep(3 * time.Millisecond)
			}
			errc <- nil
		}()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("hang: lost wake-up during retire/respawn churn (live=%d parked=%d spawned=%d retired=%d)",
				s.NumWorkers(), s.ParkedWorkers(), s.SpawnedWorkers(), s.RetiredWorkers())
		}
		waitCond(t, 10*time.Second, "pool quiesced to the floor", func() bool {
			return s.NumWorkers() == min && s.ParkedWorkers() == min &&
				s.RetiredWorkers() == s.SpawnedWorkers()
		})
	})
}

// TestElasticStatsSurviveRetirement: executed/steal counters are
// per-slot and must not reset when a worker retires and its slot is
// respawned.
func TestElasticStatsSurviveRetirement(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	s := New(1, WithSeed(31), WithMaxWorkers(2), WithRetireAfter(time.Millisecond), WithClock(clk))
	d := spdag.New(counter.FetchAdd{}, spdag.WithScheduler(s.Submit))
	s.Start()
	defer s.Shutdown()

	var before uint64
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		var leaves atomic.Int64
		for lane := 0; lane < 3; lane++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Run(d, func(u *spdag.Vertex) { spawnTree(u, 4, &leaves) })
			}()
		}
		wg.Wait()
		if st := s.Stats(); st.Executed <= before {
			t.Fatalf("round %d: Executed did not grow (%d → %d)", round, before, st.Executed)
		} else {
			before = st.Executed
		}
		// Shrink the pool between rounds on the manual clock: advance a
		// full retirement window per probe until any spawned worker has
		// retired (immediately true for rounds that never grew the pool).
		waitCond(t, 10*time.Second, "pool shrank to the floor", func() bool {
			clk.Advance(time.Millisecond)
			return s.NumWorkers() == 1
		})
	}
}
