package chaos

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestPlanDeterministic pins the reproducibility contract: the fault
// schedule is a pure function of (seed, kinds, n, window).
func TestPlanDeterministic(t *testing.T) {
	kinds := Kinds()
	a := Plan(42, kinds, 8, 1000, time.Millisecond)
	b := Plan(42, kinds, 8, 1000, time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%v\n%v", a, b)
	}
	c := Plan(43, kinds, 8, 1000, time.Millisecond)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical plans: %v", a)
	}
}

// TestPlanShape checks every planned fault draws n distinct in-window
// ordinals per kind, sorted.
func TestPlanShape(t *testing.T) {
	const n, window = 16, 500
	for _, f := range Plan(7, Kinds(), n, window, 0) {
		if len(f.Ordinals) != n {
			t.Fatalf("%s: got %d ordinals, want %d", f.Kind, len(f.Ordinals), n)
		}
		seen := make(map[uint64]bool)
		for i, o := range f.Ordinals {
			if o >= window {
				t.Fatalf("%s: ordinal %d outside window %d", f.Kind, o, window)
			}
			if seen[o] {
				t.Fatalf("%s: duplicate ordinal %d", f.Kind, o)
			}
			seen[o] = true
			if i > 0 && f.Ordinals[i-1] >= o {
				t.Fatalf("%s: ordinals not sorted: %v", f.Kind, f.Ordinals)
			}
		}
	}
}

// TestInjectorFiring checks both firing forms — explicit ordinals and
// the periodic Every/Offset — against a hand-walked stream.
func TestInjectorFiring(t *testing.T) {
	inj := NewInjector(1,
		Fault{Kind: PanicBody, Ordinals: []uint64{2, 5}, Delay: time.Second},
		Fault{Kind: DropWake, Every: 4, Offset: 1},
	)
	var fired []uint64
	for i := 0; i < 8; i++ {
		if hit, ok := inj.At(PanicBody); ok {
			if hit.Delay != time.Second {
				t.Fatalf("hit at %d lost its delay: %v", hit.Ordinal, hit.Delay)
			}
			fired = append(fired, hit.Ordinal)
		}
	}
	if want := []uint64{2, 5}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("explicit ordinals fired at %v, want %v", fired, want)
	}
	fired = nil
	for i := 0; i < 10; i++ {
		if hit, ok := inj.At(DropWake); ok {
			fired = append(fired, hit.Ordinal)
		}
	}
	if want := []uint64{1, 5, 9}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("periodic form fired at %v, want %v", fired, want)
	}
	if got := inj.Crossings(PanicBody); got != 8 {
		t.Fatalf("PanicBody crossings = %d, want 8", got)
	}
	if got := inj.Fired(); got != 5 {
		t.Fatalf("Fired = %d, want 5", got)
	}
}

// TestTraceCanonicalUnderConcurrency crosses a seam from many
// goroutines at once: the append order is scheduler noise, but the
// sorted trace must equal the planned∩crossed set exactly.
func TestTraceCanonicalUnderConcurrency(t *testing.T) {
	const crossings = 4000
	fault := Fault{Kind: StallWorker, Every: 97} // fires at 0, 97, 194, ...
	inj := NewInjector(9, fault)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < crossings/8; i++ {
				inj.At(StallWorker)
			}
		}()
	}
	wg.Wait()
	var want []Event
	for o := uint64(0); o < crossings; o += 97 {
		want = append(want, Event{Kind: StallWorker, Ordinal: o})
	}
	if got := inj.Trace(); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

func TestInstallGuards(t *testing.T) {
	inj := NewInjector(1)
	Install(inj)
	defer Uninstall()
	if Active() != inj {
		t.Fatal("Active did not return the installed injector")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Install did not panic")
			}
		}()
		Install(NewInjector(2))
	}()
}

func TestCrossWithoutInjector(t *testing.T) {
	Uninstall()
	if _, ok := Cross(PanicBody); ok {
		t.Fatal("Cross fired with no injector installed")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range Kinds() {
		if s := k.String(); s == "" || s[:5] == "chaos" {
			t.Fatalf("kind %d has no name: %q", k, s)
		}
	}
}

// TestDiagnosticStrings pins the forms a failing scenario prints: a
// trace event, the injector's seed, and the injected panic value.
func TestDiagnosticStrings(t *testing.T) {
	if got := (Event{Kind: StallWorker, Ordinal: 97}).String(); got != "stall-worker@97" {
		t.Fatalf("Event.String = %q", got)
	}
	if got := NewInjector(1234).Seed(); got != 1234 {
		t.Fatalf("Seed = %d, want 1234", got)
	}
	var err error = InjectedPanic{Ordinal: 5}
	if got := err.Error(); got != "chaos: injected task panic at body ordinal 5" {
		t.Fatalf("InjectedPanic.Error = %q", got)
	}
}
