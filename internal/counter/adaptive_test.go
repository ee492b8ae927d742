package counter

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/rng"
)

// TestAdaptiveCounterLayout pins the padding contract the struct
// comment claims: exactly two 64-byte lines (so the size-class
// allocator yields 64-aligned blocks and neighboring counters never
// share a line) with the contended cell first and the cold words on
// the second line.
func TestAdaptiveCounterLayout(t *testing.T) {
	var c adaptiveCounter
	if s := unsafe.Sizeof(c); s != 128 {
		t.Fatalf("sizeof(adaptiveCounter) = %d, want 128 (two cache lines)", s)
	}
	if o := unsafe.Offsetof(c.cell); o != 0 {
		t.Fatalf("offsetof(cell) = %d, want 0", o)
	}
	if o := unsafe.Offsetof(c.misses); o != 64 {
		t.Fatalf("offsetof(misses) = %d, want 64 (cell alone on line 0)", o)
	}
	if o := unsafe.Offsetof(c.mode); o < 64 {
		t.Fatalf("offsetof(mode) = %d, want it on the cold line", o)
	}
}

func TestParseAdaptiveRoundTrip(t *testing.T) {
	cases := []struct {
		in         string
		ok         bool
		contention uint64 // effective threshold (0 in cases where !ok)
		batch      uint64 // effective batch threshold (1 = batching off)
		eager      bool   // K = 0: promote at creation
	}{
		{"adaptive", true, DefaultContention, 1, false},
		{"adaptive:50", true, 50, 1, false},
		{"adaptive:1", true, 1, 1, false},
		{"adaptive:0", true, DefaultContention, 1, true},
		{"adaptive:0:16", true, DefaultContention, 16, true},
		{"adaptive:", false, 0, 0, false},
		{"adaptive:x", false, 0, 0, false},
		{"adaptive:-1", false, 0, 0, false},
		{"adaptive:1.5", false, 0, 0, false},
		{"adaptive:50:50", true, 50, 50, false},
		{"adaptive:32:16", true, 32, 16, false},
		{"adaptive:32:1", true, 32, 1, false},
		{"adaptive:32:0", false, 0, 0, false},
		{"adaptive:32:", false, 0, 0, false},
		{"adaptive:32:x", false, 0, 0, false},
		{"adaptive:32:16:8", false, 0, 0, false},
		{"Adaptive", false, 0, 0, false},
		{"adaptive50", false, 0, 0, false},
	}
	for _, c := range cases {
		alg, err := Parse(c.in, 100)
		if !c.ok {
			if err == nil {
				t.Errorf("Parse(%q) succeeded, want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		a, isAdaptive := alg.(Adaptive)
		if !isAdaptive || a.Name() != "adaptive" {
			t.Errorf("Parse(%q) = %T %q, want Adaptive", c.in, alg, alg.Name())
			continue
		}
		if a.contention() != c.contention {
			t.Errorf("Parse(%q) contention = %d, want %d", c.in, a.contention(), c.contention)
		}
		if a.batch() != c.batch {
			t.Errorf("Parse(%q) batch = %d, want %d", c.in, a.batch(), c.batch)
		}
		if a.Eager != c.eager {
			t.Errorf("Parse(%q) eager = %v, want %v", c.in, a.Eager, c.eager)
		}
		if a.Threshold != 100 {
			t.Errorf("Parse(%q) grow threshold = %d, want 100", c.in, a.Threshold)
		}
		if a.Stats == nil {
			t.Errorf("Parse(%q) did not wire a stats sink", c.in)
		}
	}
}

// TestAdaptiveString: the log form names the contention threshold
// (or "eager"), the grow threshold, and the batch size when batching.
func TestAdaptiveString(t *testing.T) {
	for spec, want := range map[string]string{
		"adaptive:50":   "adaptive(contention=50,threshold=100)",
		"adaptive:0:16": "adaptive(contention=eager,threshold=100,batch=16)",
	} {
		alg, err := Parse(spec, 100)
		if err != nil {
			t.Fatal(err)
		}
		if got := alg.(Adaptive).String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", spec, got, want)
		}
	}
}

func TestAdaptiveUncontendedStaysCell(t *testing.T) {
	// A purely sequential execution never fails a CAS, so the counter
	// must live and die as a single cell: no promotion, one node,
	// fetch-and-add-equal allocation behavior.
	alg := NewAdaptive(1, 1) // promote on the very first miss — there must be none
	c := alg.New(1).(*adaptiveCounter)
	g := rng.NewXoshiro(7)
	live := []State{c.RootState()}
	for i := 0; i < 500; i++ {
		if i%3 == 2 {
			live[len(live)-1].Decrement()
			live = live[:len(live)-1]
		} else {
			l, r := live[len(live)-1].Increment(g)
			live[len(live)-1] = l
			live = append(live, r)
		}
	}
	for i := len(live) - 1; i > 0; i-- {
		if live[i].Decrement() {
			t.Fatal("premature zero")
		}
	}
	if !live[0].Decrement() {
		t.Fatal("final decrement did not report zero")
	}
	if c.Promoted() || c.Misses() != 0 {
		t.Fatalf("sequential run promoted=%v misses=%d, want an untouched cell", c.Promoted(), c.Misses())
	}
	if n := c.NodeCount(); n != 1 {
		t.Fatalf("NodeCount = %d, want 1", n)
	}
	if alg.Promotions() != 0 {
		t.Fatalf("Promotions = %d, want 0", alg.Promotions())
	}
}

// TestAdaptiveForcedPromotionSequential drives random valid executions
// and forces the migration at a deterministic mid-flight step, so both
// phases and the handoff are exercised without needing scheduler luck:
// IsZero must track the live-state count across the promotion, and
// exactly the final decrement reports zero.
func TestAdaptiveForcedPromotionSequential(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := rng.NewXoshiro(seed)
		alg := NewAdaptive(0, 1)
		c := alg.New(1).(*adaptiveCounter)
		live := []State{c.RootState()}
		zeros := 0
		promoteAt := 1 + int(g.Uint64n(200))
		for i := 0; i < 400 && len(live) > 0; i++ {
			if i == promoteAt {
				c.promote()
				if !c.Promoted() {
					t.Fatal("forced promotion did not install")
				}
			}
			j := int(g.Uint64n(uint64(len(live))))
			if g.Uint64n(3) != 0 {
				l, r := live[j].Increment(g)
				live[j] = l
				live = append(live, r)
			} else {
				if live[j].Decrement() {
					zeros++
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if c.IsZero() != (len(live) == 0) {
				t.Fatalf("seed %d step %d: IsZero=%v live=%d (promoted=%v cell=%d)",
					seed, i, c.IsZero(), len(live), c.Promoted(), c.cell.Load())
			}
		}
		if len(live) > 0 && !c.Promoted() {
			// The program outlived promoteAt's range without reaching it;
			// migrate now so the final drain still crosses the handoff.
			c.promote()
		}
		promoted := c.Promoted()
		for len(live) > 0 {
			if live[len(live)-1].Decrement() {
				zeros++
			}
			live = live[:len(live)-1]
		}
		if zeros != 1 {
			t.Fatalf("seed %d: %d zero reports, want 1", seed, zeros)
		}
		if !c.IsZero() {
			t.Fatalf("seed %d: not zero at end", seed)
		}
		if promoted && alg.Promotions() != 1 {
			t.Fatalf("seed %d: Promotions = %d, want 1", seed, alg.Promotions())
		}
	}
}

// TestPromotePin pins the promotion protocol's edge cases without
// relying on scheduling: the promoter's pin is a CAS that fails at
// zero, so a drained counter is never promoted, and a pinned install is
// always followed by the cell drain that discharges its anchor.
func TestPromotePin(t *testing.T) {
	t.Run("drained counter", func(t *testing.T) {
		alg := NewAdaptive(0, 1)
		c := alg.New(1).(*adaptiveCounter)
		if !c.RootState().Decrement() {
			t.Fatal("sole decrement did not report zero")
		}
		if c.pin() {
			t.Fatal("pin succeeded on a drained cell")
		}
		if c.promote() {
			t.Fatal("promote on a drained counter reported zero")
		}
		if !c.IsZero() || c.cell.Load() != 0 {
			t.Fatalf("drained counter disturbed by promote: IsZero=%v cell=%d", c.IsZero(), c.cell.Load())
		}
		if c.anchor.Load() != nil || c.Promoted() || alg.Promotions() != 0 {
			t.Fatalf("promote on a drained counter installed (promotions=%d)", alg.Promotions())
		}
	})
	t.Run("eager with no initial obligation", func(t *testing.T) {
		alg, err := Parse("adaptive:0", 1)
		if err != nil {
			t.Fatal(err)
		}
		c := alg.New(0).(*adaptiveCounter)
		if c.anchor.Load() != nil || !c.IsZero() || alg.(Adaptive).Promotions() != 0 {
			t.Fatal("adaptive:0 promoted a counter born at zero")
		}
	})
	t.Run("one live obligation", func(t *testing.T) {
		alg := NewAdaptive(0, 1)
		c := alg.New(1).(*adaptiveCounter)
		if c.promote() {
			t.Fatal("promote reported zero under a live obligation")
		}
		if c.anchor.Load() == nil || alg.Promotions() != 1 {
			t.Fatal("promote under a live obligation did not install")
		}
		if c.cell.Load() != 1 || c.IsZero() {
			t.Fatalf("pin not released cleanly: cell=%d IsZero=%v", c.cell.Load(), c.IsZero())
		}
		if !c.RootState().Decrement() {
			t.Fatal("the drain after a pinned install did not report zero")
		}
		if !c.IsZero() {
			t.Fatal("anchor not discharged by the cell drain")
		}
	})
	// The pin racing the draining decrement: whichever order the two
	// land in, there is exactly one zero report (the decrement's, or the
	// pin release's when the pin got in first), and an install exists
	// only if its anchor has been discharged.
	t.Run("pin against the draining decrement", func(t *testing.T) {
		for it := 0; it < 2000; it++ {
			alg := NewAdaptive(0, 1)
			c := alg.New(1).(*adaptiveCounter)
			var zeros atomic.Int32
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				if c.RootState().Decrement() {
					zeros.Add(1)
				}
			}()
			go func() {
				defer wg.Done()
				if c.promote() {
					zeros.Add(1)
				}
			}()
			wg.Wait()
			if z := zeros.Load(); z != 1 {
				t.Fatalf("iter %d: %d zero reports, want 1 (installed=%v)", it, z, c.anchor.Load() != nil)
			}
			if !c.IsZero() {
				t.Fatalf("iter %d: not zero after drain (installed=%v)", it, c.anchor.Load() != nil)
			}
			want := uint64(0)
			if c.anchor.Load() != nil {
				want = 1
			}
			if got := alg.Promotions(); got != want {
				t.Fatalf("iter %d: Promotions = %d with installed=%v", it, got, want == 1)
			}
		}
	})
}

// TestAdaptivePromotionUnderFire is the promotion stress test of the
// anchor handoff: a goroutine-parallel fanin hammers the counter while
// the migration fires mid-flight (forced from outside, wherever in the
// fanin's life that lands — including after the drain, where the pin
// fails — plus organic promotion at contention threshold 1). A shadow
// count of live states — always decremented before the real Decrement —
// catches the counter reaching zero while obligations are still
// outstanding, and a watchdog catches the opposite failure (an anchor
// never discharged: no zero report, the drain hangs).
func TestAdaptivePromotionUnderFire(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(4 * time.Minute):
			panic("counter: promotion stress test wedged (anchor handoff lost the zero report?)")
		}
	}()
	defer close(done)

	for it := 0; it < iters; it++ {
		seed := uint64(it + 1)
		alg := NewAdaptive(1, 1) // organic promotion on the first miss...
		c := alg.New(1).(*adaptiveCounter)
		var shadow atomic.Int64 // live states not yet consumed
		shadow.Store(1)
		var zeros atomic.Int32
		var earlyZero atomic.Int32
		var wg sync.WaitGroup
		// Every live state's shadow unit is retired strictly before its
		// real operation, and the zeroing operation is ordered after
		// every other real decrement — so a correct counter always
		// observes 0 here, while an early zero still sees the units of
		// states that have not begun their final operation.
		onZero := func() {
			zeros.Add(1)
			if shadow.Load() != 0 {
				earlyZero.Add(1)
			}
		}

		const depth = 7 // 128 leaves per round
		var rec func(s State, d int, g *rng.Xoshiro256ss)
		rec = func(s State, d int, g *rng.Xoshiro256ss) {
			defer wg.Done()
			if d == 0 {
				shadow.Add(-1)
				if s.Decrement() {
					onZero()
				}
				return
			}
			shadow.Add(1) // one state becomes two
			l, r := s.Increment(g)
			wg.Add(2)
			go rec(l, d-1, rng.NewXoshiro(g.Next()))
			go rec(r, d-1, rng.NewXoshiro(g.Next()))
		}
		wg.Add(1)
		go rec(c.RootState(), depth, rng.NewXoshiro(seed))
		if it%2 == 0 {
			// ... and a forced migration racing the fanin from outside.
			// Its pin is an obligation like any other: released last, it
			// carries the zero report.
			if c.promote() {
				onZero()
			}
		}
		wg.Wait()

		if z := zeros.Load(); z != 1 {
			t.Fatalf("iter %d: %d zero reports, want 1 (promoted=%v)", it, z, c.Promoted())
		}
		if earlyZero.Load() != 0 {
			t.Fatalf("iter %d: counter reported zero with live states outstanding", it)
		}
		if !c.IsZero() {
			t.Fatalf("iter %d: not zero after drain", it)
		}
		if shadow.Load() != 0 {
			t.Fatalf("iter %d: shadow count %d after drain", it, shadow.Load())
		}
	}
}

// TestAdaptivePromotedNodeCount: after promotion the node count is the
// cell plus the in-counter's tree.
func TestAdaptivePromotedNodeCount(t *testing.T) {
	alg := NewAdaptive(0, 1)
	c := alg.New(1).(*adaptiveCounter)
	c.promote()
	if c.anchor.Load() == nil {
		t.Fatal("no in-counter installed by promote")
	}
	if n, tree := c.NodeCount(), c.anchor.Load().owner.NodeCount(); n != 1+tree {
		t.Fatalf("NodeCount = %d, want 1+%d", n, tree)
	}
	g := rng.NewXoshiro(5)
	s := c.RootState()
	l, r := s.Increment(g) // routes through the in-counter
	before := c.NodeCount()
	if before < 4 { // cell + root + two grown children
		t.Fatalf("NodeCount after promoted increment = %d, want ≥ 4", before)
	}
	// The increment drained the cell (discharging the anchor), so the
	// two in-counter states are all that is left: the second decrement
	// is the final one.
	if l.Decrement() {
		t.Fatal("premature zero")
	}
	if !r.Decrement() {
		t.Fatal("final decrement did not report zero")
	}
	if !c.IsZero() {
		t.Fatal("not zero after drain")
	}
}

// TestAdaptiveDoublePromoteIsIdempotent: a second promotion attempt
// (raced or repeated) must not install a second in-counter or count
// twice.
func TestAdaptiveDoublePromoteIsIdempotent(t *testing.T) {
	alg := NewAdaptive(0, 1)
	c := alg.New(1).(*adaptiveCounter)
	c.promote()
	first := c.anchor.Load()
	c.promote()
	if c.anchor.Load() != first {
		t.Fatal("second promote replaced the in-counter")
	}
	if alg.Promotions() != 1 {
		t.Fatalf("Promotions = %d, want 1", alg.Promotions())
	}
	c.RootState().Decrement()
}

func TestAdaptiveUnderflowPanics(t *testing.T) {
	alg := NewAdaptive(0, 1)
	c := alg.New(1)
	s := c.RootState()
	s.Decrement()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on adaptive cell underflow")
		}
	}()
	s.Decrement()
}

// TestContentionStepCrossval pins the sim-vs-production miss
// accounting relationship the Misses and ContentionStep doc comments
// claim. The simulator charges one collision window of k colliders
// exactly k−1 misses (one winner per round, every loser lands on its
// retry); production counts one miss per failed CAS iteration, so for
// the same window structure it is bounded below by the sim's charge
// when the colliders truly overlap and above by k·(k−1) (each op can
// fail at most once per other op's landed CAS). The pure-function half
// is exact; the live half hammers real collision windows and checks
// the upper bound — the lower bound is unassertable on hosts whose
// scheduler serializes the "concurrent" ops (a 1-core box produces
// zero misses, which only delays promotion relative to the sim, never
// hastens it).
func TestContentionStepCrossval(t *testing.T) {
	// Exact sim charge: k colliders → k−1 misses, accumulating.
	for k := 0; k <= 16; k++ {
		got, _ := ContentionStep(0, k, 1<<20)
		want := uint64(0)
		if k > 1 {
			want = uint64(k - 1)
		}
		if got != want {
			t.Fatalf("ContentionStep(0, %d) charged %d misses, want %d", k, got, want)
		}
	}
	if got, _ := ContentionStep(5, 3, 1<<20); got != 7 {
		t.Fatalf("accumulation: ContentionStep(5, 3) = %d, want 7", got)
	}
	// Threshold crossing, including the contention=0 → default mapping.
	if _, promote := ContentionStep(30, 2, 32); promote {
		t.Fatal("promoted below threshold")
	}
	if _, promote := ContentionStep(31, 2, 32); !promote {
		t.Fatal("did not promote at threshold")
	}
	if _, promote := ContentionStep(DefaultContention-1, 2, 0); !promote {
		t.Fatal("contention=0 did not map to DefaultContention")
	}

	// Live half: W windows of k one-shot cell CASes released together.
	const (
		k = 8
		w = 50
	)
	alg := NewAdaptive(1<<40, 1) // never promote: every miss stays a cell miss
	c := alg.New(1).(*adaptiveCounter)
	st := c.RootState()
	g := make([]*rng.Xoshiro256ss, k)
	for i := range g {
		g[i] = rng.NewXoshiro(uint64(i + 1))
	}
	for win := 0; win < w; win++ {
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(k)
		for i := 0; i < k; i++ {
			go func(i int) {
				defer done.Done()
				start.Wait()
				st.Increment(g[i])
			}(i)
		}
		start.Done()
		done.Wait()
	}
	bound := uint64(w * k * (k - 1))
	if got := c.Misses(); got > bound {
		t.Fatalf("production misses %d exceed the %d (= W·k·(k−1)) pairing bound", got, bound)
	}
	if c.Promoted() {
		t.Fatal("counter promoted under an unreachable threshold")
	}
}
