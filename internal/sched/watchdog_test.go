package sched

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/spdag"
)

// TestWatchdogDetectsStall synthesizes the exact shape the watchdog is
// defined on — a live run with no vertex executing and none completing
// — by registering a run without ever submitting work. The watchdog
// must count a stall and hand the hook a report naming the live run.
func TestWatchdogDetectsStall(t *testing.T) {
	s := New(2, WithSeed(1), WithWatchdog(20*time.Millisecond))
	var reports atomic.Int32
	var got atomic.Pointer[StallReport]
	s.OnStall(func(r StallReport) {
		reports.Add(1)
		got.Store(&r)
	})
	s.Start()
	defer s.Shutdown()

	s.RunStarted()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stalls() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.RunFinished()
	if s.Stalls() == 0 {
		t.Fatal("watchdog never detected the synthetic stall")
	}
	if reports.Load() == 0 {
		t.Fatal("stall counted but OnStall hook never ran")
	}
	r := got.Load()
	if r == nil || r.LiveRuns < 1 {
		t.Fatalf("report did not carry the live run: %+v", r)
	}
	if r.Since < 20*time.Millisecond {
		t.Fatalf("report window %v below the armed threshold", r.Since)
	}
	if len(r.Workers) == 0 {
		t.Fatal("report carries no per-worker state")
	}
	if !strings.Contains(r.String(), "stall") || !strings.Contains(r.String(), "worker") {
		t.Fatalf("unreadable report dump:\n%s", r)
	}
	if st := s.Stats(); st.Stalls != s.Stalls() {
		t.Fatalf("Stats.Stalls = %d, accessor = %d", st.Stalls, s.Stalls())
	}
}

// TestWatchdogQuietWhenIdle pins the cheapest false-positive guard: an
// armed watchdog over an idle scheduler (no live runs) must never
// count a stall no matter how long nothing happens.
func TestWatchdogQuietWhenIdle(t *testing.T) {
	s := New(2, WithSeed(1), WithWatchdog(10*time.Millisecond))
	s.Start()
	defer s.Shutdown()
	time.Sleep(100 * time.Millisecond)
	if n := s.Stalls(); n != 0 {
		t.Fatalf("idle scheduler counted %d stalls", n)
	}
}

// TestWatchdogSuppressedMidExecute pins the long-task guard: a single
// vertex body spinning for many multiples of the threshold is
// progress, not a stall — the worker's mid-execute mark must suppress
// detection for the body's whole duration.
func TestWatchdogSuppressedMidExecute(t *testing.T) {
	t.Run("chase-lev", func(t *testing.T) {
		// The watchdog runs on a manual clock, so the only place
		// simulated time passes is inside the body — after the
		// mid-execute mark is set. Every sampling window the watchdog
		// can possibly observe therefore has a worker inside Execute,
		// and the no-stall assertion is deterministic instead of
		// racing wall-clock starvation between Run and markExec.
		clk := NewManualClock(time.Unix(0, 0))
		s := New(2, WithSeed(1), WithWatchdog(10*time.Millisecond), WithClock(clk))
		s.Start()
		defer s.Shutdown()
		d := spdag.New(counter.Dynamic{Threshold: 1}, spdag.WithScheduler(s.Submit))
		s.Run(d, func(*spdag.Vertex) {
			// 15 threshold windows of no vertex completing anywhere,
			// with a pause after each advance so the sampler can
			// observe the window mid-execute.
			for i := 0; i < 60; i++ {
				clk.Advance(2500 * time.Microsecond)
				time.Sleep(100 * time.Microsecond)
			}
		})
		if n := s.Stalls(); n != 0 {
			t.Fatalf("long-running task tripped the watchdog %d times", n)
		}
	})
}

// TestWatchdogRecoveryNudge checks the detector's wakeAll is benign
// end to end: a scheduler that stalls (synthetically) and is then
// given real work completes it normally, and the stall count stops
// growing once the live run is gone.
func TestWatchdogRecoveryNudge(t *testing.T) {
	s := New(2, WithSeed(1), WithWatchdog(15*time.Millisecond))
	s.Start()
	defer s.Shutdown()

	s.RunStarted()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stalls() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.RunFinished()
	if s.Stalls() == 0 {
		t.Fatal("no stall detected")
	}

	d := spdag.New(counter.Dynamic{Threshold: 1}, spdag.WithScheduler(s.Submit))
	ran := false
	s.Run(d, func(*spdag.Vertex) { ran = true })
	if !ran {
		t.Fatal("post-stall run did not execute")
	}
	after := s.Stalls()
	time.Sleep(60 * time.Millisecond)
	if s.Stalls() != after {
		t.Fatalf("stall count kept growing after recovery: %d -> %d", after, s.Stalls())
	}
}
