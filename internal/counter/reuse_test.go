package counter

import (
	"testing"

	"repro/internal/rng"
)

// drain runs a spent-counter lifecycle on c: the root state spawns
// once and both children signal, so the second decrement reports zero.
func drain(t *testing.T, c Counter) {
	t.Helper()
	l, r := c.RootState().Increment(rng.NewXoshiro(1))
	if l.Decrement() {
		t.Fatal("first decrement reported zero")
	}
	if !r.Decrement() {
		t.Fatal("last decrement did not report zero")
	}
}

// TestRenewReusesSpentCounter: a drained counter that never promoted
// comes back from Renew as itself, reset to a fresh counter holding
// the new initial count, and runs a second lifecycle like a new one.
func TestRenewReusesSpentCounter(t *testing.T) {
	for _, alg := range []Adaptive{NewAdaptive(0, 25), {Contention: 32, Batch: 16, Threshold: 25, Stats: new(AdaptiveStats)}} {
		c := alg.New(1)
		drain(t, c)
		c.(*adaptiveCounter).misses.Store(3) // a miss short of promotion
		Park(c)
		got := Renew(c, alg, 2)
		if got != c {
			t.Fatalf("%v: Renew allocated instead of reusing a spent counter", alg)
		}
		ac := got.(*adaptiveCounter)
		if n := ac.cell.Load(); n != 2 {
			t.Fatalf("%v: renewed cell = %d, want 2", alg, n)
		}
		if ac.Misses() != 0 || ac.Promoted() || ac.calm.Load() != 0 || ac.fa.c != ac {
			t.Fatalf("%v: renew left state behind: misses=%d promoted=%v calm=%d", alg, ac.Misses(), ac.Promoted(), ac.calm.Load())
		}
		if ac.contention != alg.contention() || ac.grow != alg.Threshold || ac.batch != alg.batch() || ac.stats != alg.Stats {
			t.Fatalf("%v: renew lost the counter's tuning", alg)
		}
		st := got.RootState()
		if st.Decrement() || !st.Decrement() {
			t.Fatalf("%v: renewed counter did not drain exactly at its second decrement", alg)
		}
	}
}

// TestRenewRefuses lists every counter Renew must not reuse; each gets
// a fresh counter of the requested algorithm instead.
func TestRenewRefuses(t *testing.T) {
	alg := NewAdaptive(0, 25)
	spent := func(a Algorithm) Counter {
		c := a.New(1)
		drain(t, c)
		return c
	}
	promoted := alg.New(1).(*adaptiveCounter)
	if promoted.promote() {
		t.Fatal("promotion drained a live counter")
	}
	drain(t, promoted)
	batched := Adaptive{Batch: 4, Threshold: 25, Stats: new(AdaptiveStats)}
	demoted := batched.New(1).(*adaptiveCounter)
	demoted.promote()
	demoted.demote()
	drain(t, demoted)
	cases := []struct {
		name  string
		spent Counter
		alg   Algorithm
	}{
		{"nil", nil, alg},
		{"live", alg.New(1), alg},
		{"other algorithm", spent(alg), FetchAdd{}},
		{"other stats sink", spent(alg), NewAdaptive(0, 25)},
		{"other threshold", spent(alg), Adaptive{Threshold: 26, Stats: alg.Stats}},
		{"other batch", spent(alg), Adaptive{Threshold: 25, Batch: 8, Stats: alg.Stats}},
		{"eager algorithm", spent(alg), Adaptive{Threshold: 25, Eager: true, Stats: alg.Stats}},
		{"in-counter installed", promoted, alg},
		{"buffered then demoted", demoted, batched},
		{"fetchadd counter", spent(FetchAdd{}), alg},
	}
	for _, tc := range cases {
		got := Renew(tc.spent, tc.alg, 1)
		if tc.spent != nil && got == tc.spent {
			t.Errorf("%s: Renew reused the counter", tc.name)
		}
		if got == nil || got.IsZero() {
			t.Errorf("%s: Renew did not return a fresh counter holding 1", tc.name)
		}
	}
}

// TestRenewRefusesCounterWithLateFlush drives the case that keeps
// buffered counters out of reuse. Worker B's slot buffers four
// increments against a pre-paid anchor of four (delta == anchor, so
// its ledger term is 0); worker A buffers all five decrements and its
// flush drains the cell, reporting zero, while B's slot is still
// active. The counter must be refused for reuse, and B's late flush
// must find it intact: no zero report, cell still 0, and its calm
// bookkeeping landing on this counter, not on a renewed one.
func TestRenewRefusesCounterWithLateFlush(t *testing.T) {
	alg := Adaptive{Contention: 32, Batch: 4, Threshold: 25, Stats: new(AdaptiveStats)}
	c := alg.New(1).(*adaptiveCounter)
	c.promote()
	if !c.buffering() {
		t.Fatal("promotion did not set the buffering flag")
	}
	st := c.RootState().(HomedState)
	g := rng.NewXoshiro(1)
	a, b := NewHome(), NewHome()
	for range 4 {
		st.IncrementHomed(g, b, "fin")
	}
	if n := c.cell.Load(); n != 5 {
		t.Fatalf("cell = %d after B's increments, want 5 (root + one 4-unit anchor)", n)
	}
	for i := range 5 {
		if st.DecrementHomed(a, "fin") {
			t.Fatalf("decrement %d reported zero", i)
		}
	}
	zeros := 0
	a.FlushAll(func(any) { zeros++ })
	if zeros != 1 || !c.IsZero() {
		t.Fatalf("A's flush: %d zero reports, IsZero=%v; want the one zero report", zeros, c.IsZero())
	}
	if !b.Active() {
		t.Fatal("B's slot settled early: the scenario needs it active")
	}

	// The finish vertex has run; its recycle parks the counter and the
	// next finish vertex asks to renew it.
	Park(c)
	if got := Renew(c, alg, 1); got == Counter(c) {
		t.Fatal("Renew reused a buffered counter while a slot still held it")
	}

	// B's late flush applies nothing (delta − anchor = 0), but its slot
	// absorbed a full window, so observeFlush still writes the calm
	// streak: the write a renewed counter would have taken.
	c.calm.Store(demoteCalm - 1)
	b.FlushAll(func(any) { t.Fatal("late flush reported a second zero") })
	if n := c.cell.Load(); n != 0 {
		t.Fatalf("cell = %d after the late flush, want 0", n)
	}
	if n := c.calm.Load(); n != 0 || !c.buffering() {
		t.Fatalf("late flush: calm=%d buffering=%v, want its reset on this counter", n, c.buffering())
	}
	if b.Active() {
		t.Fatal("B's slot still active after its flush")
	}
	if got := Renew(c, alg, 1); got == Counter(c) {
		t.Fatal("Renew reused a counter that was buffered once")
	}
}

// TestParkPoisonsUntilRenew pins the -tags nestedchecks poison: a
// parked counter panics on every operation and on a second park, and
// Renew clears it. Without the tag Park does nothing.
func TestParkPoisonsUntilRenew(t *testing.T) {
	alg := NewAdaptive(0, 25)
	c := alg.New(1)
	drain(t, c)
	Park(c)
	if !checks {
		if !c.IsZero() {
			t.Fatal("Park changed a counter without -tags nestedchecks")
		}
		return
	}
	ops := map[string]func(){
		"IsZero":    func() { c.IsZero() },
		"NodeCount": func() { c.NodeCount() },
		"RootState": func() { c.RootState() },
		"Increment": func() { c.(*adaptiveCounter).fa.Increment(rng.NewXoshiro(1)) },
		"Decrement": func() { c.(*adaptiveCounter).fa.Decrement() },
		"flush":     func() { c.(*adaptiveCounter).observeFlush(0, false) },
		"Park":      func() { Park(c) },
	}
	for name, op := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a parked counter did not panic", name)
				}
			}()
			op()
		}()
	}
	if Renew(c, alg, 1) != c || c.IsZero() {
		t.Fatal("Renew did not reuse and clear a parked counter")
	}
}
