package counter

import (
	"sync"
	"testing"

	"repro/internal/rng"
)

func allAlgorithms() []Algorithm {
	return []Algorithm{
		FetchAdd{},
		Dynamic{Threshold: 1},
		Dynamic{Threshold: 50},
		FixedSNZI{Depth: 0},
		FixedSNZI{Depth: 2},
		FixedSNZI{Depth: 5},
		NewAdaptive(0, 1),  // promotes only if the schedule contends
		NewAdaptive(1, 50), // promotes on the first observed collision
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"fetchadd", "fetchadd", true},
		{"dyn", "dyn", true},
		{"snzi-3", "snzi-3", true},
		{"snzi-0", "snzi-0", true},
		{"adaptive", "adaptive", true},
		{"adaptive:50", "adaptive", true},
		{"snzi-x", "", false},
		{"snzi--1", "", false},
		{"adaptive:bogus", "", false},
		{"bogus", "", false},
	}
	for _, c := range cases {
		a, err := Parse(c.in, 100)
		if c.ok && (err != nil || a.Name() != c.want) {
			t.Errorf("Parse(%q) = %v, %v; want name %q", c.in, a, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.in)
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	if (FetchAdd{}).Name() != "fetchadd" {
		t.Error("fetchadd name")
	}
	if (Dynamic{Threshold: 7}).Name() != "dyn" {
		t.Error("dyn name")
	}
	if (Dynamic{Threshold: 7}).String() != "dyn(threshold=7)" {
		t.Error("dyn string")
	}
	if (FixedSNZI{Depth: 4}).Name() != "snzi-4" {
		t.Error("fixed name")
	}
}

// TestContractSoleDependency: New(1) + RootState + Decrement → zero,
// for every algorithm.
func TestContractSoleDependency(t *testing.T) {
	for _, alg := range allAlgorithms() {
		c := alg.New(1)
		if c.IsZero() {
			t.Errorf("%s: fresh New(1) is zero", alg.Name())
		}
		if !c.RootState().Decrement() {
			t.Errorf("%s: sole decrement did not report zero", alg.Name())
		}
		if !c.IsZero() {
			t.Errorf("%s: not zero after sole decrement", alg.Name())
		}
	}
}

// TestContractRandomPrograms runs random sequential valid executions
// through every algorithm and checks: IsZero tracks the live-vertex
// count, and exactly one Decrement reports zero, at the end.
func TestContractRandomPrograms(t *testing.T) {
	for _, alg := range allAlgorithms() {
		for seed := uint64(1); seed <= 10; seed++ {
			g := rng.NewXoshiro(seed)
			c := alg.New(1)
			live := []State{c.RootState()}
			zeros := 0
			for i := 0; i < 400 && len(live) > 0; i++ {
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
					t.Fatalf("%s seed %d step %d: IsZero=%v live=%d", alg.Name(), seed, i, c.IsZero(), len(live))
				}
			}
			for len(live) > 0 {
				if live[len(live)-1].Decrement() {
					zeros++
				}
				live = live[:len(live)-1]
			}
			if zeros != 1 {
				t.Fatalf("%s seed %d: %d zero reports, want 1", alg.Name(), seed, zeros)
			}
		}
	}
}

// TestContractConcurrentFanin runs a goroutine-parallel fanin through
// every algorithm: exactly one decrement reports zero.
func TestContractConcurrentFanin(t *testing.T) {
	for _, alg := range allAlgorithms() {
		const depth = 9 // 512 leaves
		c := alg.New(1)
		var mu sync.Mutex
		zeros := 0
		var wg sync.WaitGroup
		var rec func(s State, d int, g *rng.Xoshiro256ss)
		rec = func(s State, d int, g *rng.Xoshiro256ss) {
			defer wg.Done()
			if d == 0 {
				if s.Decrement() {
					mu.Lock()
					zeros++
					mu.Unlock()
				}
				return
			}
			l, r := s.Increment(g)
			wg.Add(2)
			go rec(l, d-1, rng.NewXoshiro(g.Next()))
			go rec(r, d-1, rng.NewXoshiro(g.Next()))
		}
		wg.Add(1)
		rec(c.RootState(), depth, rng.NewXoshiro(1))
		wg.Wait()
		if zeros != 1 {
			t.Fatalf("%s: %d zero reports, want 1", alg.Name(), zeros)
		}
		if !c.IsZero() {
			t.Fatalf("%s: not zero at end", alg.Name())
		}
	}
}

func TestNodeCounts(t *testing.T) {
	if n := (FetchAdd{}).New(0).NodeCount(); n != 1 {
		t.Errorf("fetchadd NodeCount = %d, want 1", n)
	}
	if n := (FixedSNZI{Depth: 3}).New(0).NodeCount(); n != 15 {
		t.Errorf("snzi-3 NodeCount = %d, want 15", n)
	}
	// Dynamic grows with use.
	c := (Dynamic{Threshold: 1}).New(1)
	if c.NodeCount() != 1 {
		t.Errorf("fresh dyn NodeCount = %d, want 1", c.NodeCount())
	}
	g := rng.NewXoshiro(3)
	s := c.RootState()
	l, r := s.Increment(g)
	if c.NodeCount() != 3 {
		t.Errorf("dyn NodeCount after 1 increment = %d, want 3", c.NodeCount())
	}
	l.Decrement()
	r.Decrement()
}

func TestFetchAddUnderflowPanics(t *testing.T) {
	c := (FetchAdd{}).New(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on fetch-add underflow")
		}
	}()
	c.RootState().Decrement()
}

func TestDynamicUnwrap(t *testing.T) {
	c := (Dynamic{Threshold: 1}).New(1).(*dynCounter)
	if c.Unwrap() == nil {
		t.Fatal("Unwrap returned nil")
	}
	if c.Unwrap().NodeCount() != c.NodeCount() {
		t.Fatal("Unwrap node count mismatch")
	}
	c.RootState().Decrement()
}

func TestFixedTreeExposed(t *testing.T) {
	c := (FixedSNZI{Depth: 2}).New(1).(*fixedCounter)
	if c.Tree() == nil || c.Tree().NodeCount() != 7 {
		t.Fatal("fixed counter tree wrong")
	}
	c.RootState().Decrement()
}

func TestFixedSNZISpreadsLeaves(t *testing.T) {
	// With enough increments, a depth-3 tree should see arrives on many
	// distinct leaves (hashing spreads them). Every arrive is still
	// live, so a touched leaf still holds surplus.
	c := (FixedSNZI{Depth: 3}).New(1).(*fixedCounter)
	g := rng.NewXoshiro(11)
	live := []State{c.RootState()}
	for i := 0; i < 200; i++ {
		l, r := live[len(live)-1].Increment(g)
		live[len(live)-1] = l
		live = append(live, r)
	}
	touched := 0
	for _, leaf := range c.leaves {
		if leaf.HasSurplus() {
			touched++
		}
	}
	if touched < len(c.leaves)/2 {
		t.Fatalf("only %d/%d leaves touched after 200 increments", touched, len(c.leaves))
	}
	for _, s := range live {
		s.Decrement()
	}
	if !c.IsZero() {
		t.Fatal("not zero after drain")
	}
}
