package gateway

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro"
)

// wedgeRegistry is Builtins plus the hostile wedge template the
// self-defense tests drive.
func wedgeRegistry(t *testing.T) *Registry {
	t.Helper()
	r := Builtins()
	if err := r.Register(WedgeTemplate()); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReapHungRequest drives the full self-defense arc on a production
// build: a request wedges past deadline+grace, the reaper force-fails
// it (ErrHung), the gateway degrades (new admissions 503), and once
// the wedge clears and the hold-down expires the gateway serves
// normally again — including a clean Close.
func TestReapHungRequest(t *testing.T) {
	g := newTestGateway(t, Config{
		Registry:         wedgeRegistry(t),
		ReapGrace:        50 * time.Millisecond,
		DegradedHoldDown: 250 * time.Millisecond,
		JitterSeed:       1,
	})

	// 600ms wedge under an 80ms deadline: reapable from ~130ms.
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := g.Submit(ctx, "victim", "wedge", 600)
	took := time.Since(start)
	if !errors.Is(err, ErrHung) {
		t.Fatalf("wedged request returned %v, want ErrHung", err)
	}
	if took >= 600*time.Millisecond {
		t.Fatalf("Submit blocked %v — the reap did not release the caller before the wedge ended", took)
	}

	s := g.Stats()
	if s.Reaped != 1 {
		t.Fatalf("Stats.Reaped = %d, want 1", s.Reaped)
	}
	if s.DegradedTrips == 0 || !s.Degraded {
		t.Fatalf("reap did not trip degraded mode: %+v", s)
	}

	// Degraded: a fresh admission sheds 503 with a jittered hint.
	var deg *DegradedError
	if _, err := g.Submit(context.Background(), "other", "spin", 100); !errors.As(err, &deg) {
		t.Fatalf("admission during hold-down returned %v, want DegradedError", err)
	} else if deg.RetryAfter <= 0 {
		t.Fatalf("degraded shed carries no Retry-After: %v", deg)
	}
	if g.Stats().ShedDegraded == 0 {
		t.Fatal("degraded shed not counted")
	}

	// Recovery: wait out the wedge and the hold-down, then serve.
	deadline := time.Now().Add(3 * time.Second)
	for g.Degraded() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g.Degraded() {
		t.Fatal("gateway never left degraded mode")
	}
	if _, err := g.Submit(context.Background(), "other", "spin", 100); err != nil {
		t.Fatalf("post-recovery Submit failed: %v", err)
	}
}

// TestReapDisabled pins the opt-out: with ReapGrace < 0 a wedged
// request simply runs to its (bounded) end and returns the deadline
// error, never ErrHung.
func TestReapDisabled(t *testing.T) {
	g := newTestGateway(t, Config{
		Registry:  wedgeRegistry(t),
		ReapGrace: -1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := g.Submit(ctx, "t", "wedge", 200)
	if errors.Is(err, ErrHung) {
		t.Fatal("reaper fired with reaping disabled")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if g.Stats().Reaped != 0 {
		t.Fatal("Reaped counted with reaping disabled")
	}
}

// TestWatchdogNoFalsePositiveThroughGateway is the satellite guard: a
// gateway with an armed scheduler watchdog serving one long-running
// single-body task (the wedge template under a generous deadline — the
// strictest case, since no other vertex completes meanwhile) must not
// trip the stall detector, must not degrade, and must not reap.
func TestWatchdogNoFalsePositiveThroughGateway(t *testing.T) {
	g := newTestGateway(t, Config{
		Registry: wedgeRegistry(t),
		RuntimeOptions: []repro.Option{repro.WithWorkers(2), repro.WithSeed(42),
			repro.WithWatchdog(15 * time.Millisecond)},
	})
	// 300ms single body = 20 threshold windows with no vertex finishing.
	if _, err := g.Submit(context.Background(), "t", "wedge", 300); err != nil {
		t.Fatalf("long task failed: %v", err)
	}
	// The spin template exercises the same guard with many-vertex
	// progress underneath (its leaves keep the executed sum moving).
	if _, err := g.Submit(context.Background(), "t", "spin", 200_000); err != nil {
		t.Fatalf("spin failed: %v", err)
	}
	s := g.Stats()
	if s.Runtime.Stalls != 0 {
		t.Fatalf("watchdog tripped %d times on healthy long tasks", s.Runtime.Stalls)
	}
	if s.Degraded || s.DegradedTrips != 0 || s.Reaped != 0 {
		t.Fatalf("self-defense fired without a fault: %+v", s)
	}
}

// TestRetryAfterJitter pins the three properties of the Retry-After
// spread: bounded (every sample in [0.8d, 1.2d]), actually spread (not
// a constant), and seeded (same seed ⇒ same sequence, different seed ⇒
// different sequence).
func TestRetryAfterJitter(t *testing.T) {
	mk := func(seed uint64) *Gateway {
		return newTestGateway(t, Config{JitterSeed: seed})
	}
	g1, g2, g3 := mk(7), mk(7), mk(8)

	const d = time.Second
	lo, hi := 800*time.Millisecond, 1200*time.Millisecond
	var a, b, c []time.Duration
	min, max := d, d
	for i := 0; i < 200; i++ {
		j1, j2, j3 := g1.jitter(d), g2.jitter(d), g3.jitter(d)
		if j1 < lo || j1 > hi {
			t.Fatalf("sample %d: jitter(%v) = %v outside [%v, %v]", i, d, j1, lo, hi)
		}
		if j1 < min {
			min = j1
		}
		if j1 > max {
			max = j1
		}
		a, b, c = append(a, j1), append(b, j2), append(c, j3)
	}
	// 200 uniform draws over ±20%: spread must cover well past ±10%.
	if min > 900*time.Millisecond || max < 1100*time.Millisecond {
		t.Fatalf("jitter not spread: min %v, max %v", min, max)
	}
	same, diff := true, false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
	}
	if !same {
		t.Fatal("same seed produced different jitter sequences")
	}
	if !diff {
		t.Fatal("different seeds produced identical jitter sequences")
	}
	if g1.jitter(0) != 0 {
		t.Fatal("jitter(0) must stay 0 (no hint to spread)")
	}
}

// TestDrainShedOrder pins the admission severity contract under the
// BeginDrain race: (a) deterministically — a gateway that is BOTH
// draining and queue-full answers 503 (ErrDraining), never 429; and
// (b) under hammering — once BeginDrain has returned, every
// subsequently started Submit gets ErrDraining, no matter how full
// the queue was at that instant.
func TestDrainShedOrder(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	// The gate must open before t.Cleanup's g.Close, which waits for
	// the blocked requests — including on the t.Fatal paths below.
	defer unblock()
	g := newTestGateway(t, Config{
		Registry:    blockingRegistry(release),
		QueueDepth:  2,
		Dispatchers: 2,
		// Both dispatchers wedge on the gate, so the elastic pool pegs
		// immediately; a finite window would overload-shed part of the
		// backlog before it could fill the queue.
		PeggedWindow: time.Hour,
		JitterSeed:   3,
	})

	// Occupy both dispatchers and fill the queue with gate-blocked
	// requests. A backlog submit can itself lose a race with dispatcher
	// pickup and shed queue-full (transiently full queue), so each
	// submitter retries until admitted; ErrDraining ends a straggler
	// still retrying after (b) begins.
	const backlog = 4 // 2 running + 2 queued
	var wg sync.WaitGroup
	for i := 0; i < backlog; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := g.Submit(context.Background(), "t", "block", 0)
				var shed *ShedError
				if errors.As(err, &shed) && shed.Reason == ShedQueueFull {
					time.Sleep(time.Millisecond)
					continue
				}
				return
			}
		}()
	}
	// Wait for the stable saturated state: every dispatcher blocked on
	// the gate AND the queue full. Blocked dispatchers cannot dequeue,
	// so once observed the state holds until release — the probe below
	// is deterministic, not racing a pickup.
	deadline := time.Now().Add(30 * time.Second)
	for {
		g.mu.Lock()
		full := g.running == g.cfg.Dispatchers && g.queued >= g.cfg.QueueDepth
		g.mu.Unlock()
		if full {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never saturated: stats=%+v", g.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// (a) queue-full alone: 429.
	if _, err := g.Submit(context.Background(), "t", "block", 0); err == nil {
		t.Fatal("queue-full admission unexpectedly succeeded")
	} else {
		var shed *ShedError
		if !errors.As(err, &shed) || shed.Reason != ShedQueueFull {
			t.Fatalf("pre-drain full queue returned %v, want queue-full ShedError", err)
		}
	}

	// (b) drain + queue-full together: the drain gate must win.
	g.BeginDrain()
	for i := 0; i < 20; i++ {
		_, err := g.Submit(context.Background(), "t", "block", 0)
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("post-BeginDrain Submit #%d returned %v, want ErrDraining", i, err)
		}
	}
	unblock()
	wg.Wait()
}

// TestDrainShedOrderHammer races BeginDrain against a storm of
// admissions on a tiny queue: every refusal must be ErrDraining or a
// 429 ShedError, and — the contract — any Submit that starts after
// BeginDrain returned must see ErrDraining, never a 429, because the
// drain flag and every capacity gate are read under one lock hold.
func TestDrainShedOrderHammer(t *testing.T) {
	for round := 0; round < 10; round++ {
		g := New(Config{
			Registry:       Builtins(),
			QueueDepth:     1,
			Dispatchers:    2,
			JitterSeed:     uint64(round + 1),
			RuntimeOptions: []repro.Option{repro.WithWorkers(2), repro.WithSeed(42)},
		})
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					g.Submit(context.Background(), "t", "spin", 2000)
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		g.BeginDrain()
		// After BeginDrain returns, the verdict is sealed.
		for i := 0; i < 10; i++ {
			if _, err := g.Submit(context.Background(), "t", "spin", 100); !errors.Is(err, ErrDraining) {
				t.Fatalf("round %d: post-drain Submit returned %v, want ErrDraining", round, err)
			}
		}
		close(stop)
		wg.Wait()
		g.Close()
	}
}

// TestDegradedBeatsThrottle pins the severity order one level down:
// a tenant that would be throttled must still see the degraded 503,
// not its quota 429 — degraded is a gateway-wide verdict.
func TestDegradedBeatsThrottle(t *testing.T) {
	g := newTestGateway(t, Config{
		Registry:         Builtins(),
		TenantRate:       0.0001, // one token, then dry for hours
		TenantBurst:      1,
		DegradedHoldDown: time.Minute,
		JitterSeed:       5,
	})
	// Exhaust the tenant's only token.
	if _, err := g.Submit(context.Background(), "t", "spin", 100); err != nil {
		t.Fatalf("first request failed: %v", err)
	}
	g.tripDegraded()
	var deg *DegradedError
	if _, err := g.Submit(context.Background(), "t", "spin", 100); !errors.As(err, &deg) {
		t.Fatalf("degraded+throttled returned %v, want DegradedError", err)
	}
}
