package stallsim

import (
	"fmt"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/rng"
	"repro/internal/snzi"
)

func simAlgorithms() []SimAlgorithm {
	return []SimAlgorithm{
		FetchAdd{},
		Dynamic{Threshold: 1},
		Dynamic{Threshold: 8},
		FixedSNZI{Depth: 0},
		FixedSNZI{Depth: 3},
	}
}

func TestFaninCompletesAllAlgorithms(t *testing.T) {
	for _, alg := range simAlgorithms() {
		for _, p := range []int{1, 2, 7, 16} {
			res := RunFanin(FaninConfig{Threads: p, N: 64, Algorithm: alg, Seed: 5})
			if res.Decrements == nil || res.Increments == nil {
				t.Fatalf("%s P=%d: missing stats", alg.Name(), p)
			}
			// Counter balance: initial 1 + increments = decrements.
			if res.Decrements.Count != res.Increments.Count+1 {
				t.Fatalf("%s P=%d: %d decrements vs %d increments",
					alg.Name(), p, res.Decrements.Count, res.Increments.Count)
			}
			if res.String() == "" {
				t.Fatal("empty result string")
			}
		}
	}
}

func TestFaninTaskAccounting(t *testing.T) {
	// For n a power of two, fanin creates 2n−1 tasks: n−1 internal
	// (2 increments + 1 decrement each) and n leaves (1 decrement).
	res := RunFanin(FaninConfig{Threads: 4, N: 256, Algorithm: FetchAdd{}, Seed: 9})
	if got, want := res.Increments.Count, uint64(2*(256-1)); got != want {
		t.Fatalf("increments = %d, want %d", got, want)
	}
	if got, want := res.Decrements.Count, uint64(2*256-1); got != want {
		t.Fatalf("decrements = %d, want %d", got, want)
	}
}

// TestCorollary47InModel: with p = 1, no increment performs more than
// 3 node-level arrives, at any simulated processor count.
func TestCorollary47InModel(t *testing.T) {
	for _, p := range []int{1, 4, 16, 64} {
		res := RunFanin(FaninConfig{Threads: p, N: 512, Algorithm: Dynamic{Threshold: 1}, Seed: uint64(p)})
		if res.MaxArrives > 3 {
			t.Fatalf("P=%d: an increment performed %d arrives (bound 3)", p, res.MaxArrives)
		}
	}
}

// TestTheorem49ConstantContention: the in-counter's stalls per
// operation must stay bounded by a small constant as the simulated
// processor count grows; the proof's bound of ≤6 operations per node
// implies single-digit stalls per op.
func TestTheorem49ConstantContention(t *testing.T) {
	var last float64
	for _, p := range []int{2, 8, 32, 128} {
		res := RunFanin(FaninConfig{Threads: p, N: 1024, Algorithm: Dynamic{Threshold: 1}, Seed: 3})
		if s := res.StallsPerOp(); s > 6 {
			t.Fatalf("P=%d: in-counter stalls/op = %.2f, want O(1) (≤ 6)", p, s)
		}
		last = res.StallsPerOp()
	}
	_ = last
}

// TestFetchAddLinearContention: the single cell exhibits Θ(P) stalls
// per op — the Fich et al. lower-bound behaviour the paper contrasts
// against.
func TestFetchAddLinearContention(t *testing.T) {
	res8 := RunFanin(FaninConfig{Threads: 8, N: 1024, Algorithm: FetchAdd{}, Seed: 3})
	res64 := RunFanin(FaninConfig{Threads: 64, N: 1024, Algorithm: FetchAdd{}, Seed: 3})
	s8, s64 := res8.StallsPerOp(), res64.StallsPerOp()
	if s64 < 4*s8 {
		t.Fatalf("fetch-add stalls/op did not scale: P=8 → %.2f, P=64 → %.2f (want ≥ 4×)", s8, s64)
	}
	if s64 < 16 {
		t.Fatalf("fetch-add at P=64: stalls/op = %.2f, want tens", s64)
	}
}

// TestInCounterBeatsFetchAddInModel: at high simulated core counts the
// in-counter's contention must be far below fetch-and-add's — the
// model-level analogue of Figure 8's crossover.
func TestInCounterBeatsFetchAddInModel(t *testing.T) {
	const p = 64
	fa := RunFanin(FaninConfig{Threads: p, N: 1024, Algorithm: FetchAdd{}, Seed: 7})
	dyn := RunFanin(FaninConfig{Threads: p, N: 1024, Algorithm: Dynamic{Threshold: 1}, Seed: 7})
	if dyn.StallsPerOp()*5 > fa.StallsPerOp() {
		t.Fatalf("in-counter %.2f vs fetch-add %.2f stalls/op at P=%d: want ≥ 5× gap",
			dyn.StallsPerOp(), fa.StallsPerOp(), p)
	}
}

// TestFixedDepthMonotone: deeper fixed trees contend less (more leaves
// to spread over).
func TestFixedDepthMonotone(t *testing.T) {
	const p = 32
	shallow := RunFanin(FaninConfig{Threads: p, N: 1024, Algorithm: FixedSNZI{Depth: 1}, Seed: 11})
	deep := RunFanin(FaninConfig{Threads: p, N: 1024, Algorithm: FixedSNZI{Depth: 6}, Seed: 11})
	if deep.StallsPerOp() >= shallow.StallsPerOp() {
		t.Fatalf("depth 6 (%.2f stalls/op) not better than depth 1 (%.2f)",
			deep.StallsPerOp(), shallow.StallsPerOp())
	}
}

func TestDeterminism(t *testing.T) {
	a := RunFanin(FaninConfig{Threads: 8, N: 256, Algorithm: Dynamic{Threshold: 4}, Seed: 21})
	b := RunFanin(FaninConfig{Threads: 8, N: 256, Algorithm: Dynamic{Threshold: 4}, Seed: 21})
	if a.TotalSteps != b.TotalSteps || a.TotalStalls != b.TotalStalls || a.Nodes != b.Nodes {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestNodesGrowWithDynamic(t *testing.T) {
	res := RunFanin(FaninConfig{Threads: 4, N: 256, Algorithm: Dynamic{Threshold: 1}, Seed: 2})
	if res.Nodes < 100 {
		t.Fatalf("p=1 tree has %d nodes after 510 increments, want hundreds", res.Nodes)
	}
	resProb := RunFanin(FaninConfig{Threads: 4, N: 256, Algorithm: Dynamic{Threshold: 1 << 40}, Seed: 2})
	if resProb.Nodes > 3 {
		t.Fatalf("p≈0 tree grew to %d nodes, want ≤ 3", resProb.Nodes)
	}
}

func TestFixedTreeNodeCount(t *testing.T) {
	res := RunFanin(FaninConfig{Threads: 2, N: 16, Algorithm: FixedSNZI{Depth: 4}, Seed: 2})
	if res.Nodes != 31 {
		t.Fatalf("fixed depth-4 tree has %d nodes, want 31", res.Nodes)
	}
}

func TestDegenerateConfigs(t *testing.T) {
	// Threads and N get clamped to 1; a single leaf task means one
	// decrement and no increments.
	res := RunFanin(FaninConfig{Threads: 0, N: 0, Algorithm: FetchAdd{}, Seed: 1})
	if res.Increments != nil && res.Increments.Count != 0 {
		t.Fatalf("unexpected increments: %+v", res.Increments)
	}
	if res.Decrements.Count != 1 {
		t.Fatalf("decrements = %d, want 1", res.Decrements.Count)
	}
	if res.StallsPerOp() != 0 || res.StepsPerOp() == 0 {
		t.Fatalf("odd per-op stats: %v", res)
	}
}

// TestSimSNZIQueryAndProtocol drives the simulated SNZI tree directly
// (single thread) and cross-checks against the reference semantics.
func TestSimSNZIQueryAndProtocol(t *testing.T) {
	sim := memmodel.New(1)
	tree := NewTree(sim, 0)
	var ok bool
	sim.Spawn(func(e *memmodel.Env) {
		if tree.Query(e) {
			return
		}
		l, r := tree.Root().Grow(e, true)
		if l == r {
			return
		}
		l.Arrive(e)
		if !tree.Query(e) {
			return
		}
		r.Arrive(e)
		if l.Depart(e) {
			return // zero too early
		}
		if !r.Depart(e) {
			return // final depart must report zero
		}
		if tree.Query(e) {
			return
		}
		ok = true
	})
	sim.Run()
	if !ok {
		t.Fatal("simulated SNZI protocol deviated from reference semantics")
	}
	if tree.NodeCount() != 3 {
		t.Fatalf("node count %d, want 3", tree.NodeCount())
	}
}

// TestSimGrowTailsReturnsSelf mirrors the native Grow contract.
func TestSimGrowTailsReturnsSelf(t *testing.T) {
	sim := memmodel.New(1)
	tree := NewTree(sim, 0)
	var l, r *Node
	sim.Spawn(func(e *memmodel.Env) {
		l, r = tree.Root().Grow(e, false)
	})
	sim.Run()
	if l != tree.Root() || r != tree.Root() {
		t.Fatal("Grow(false) on childless node did not return (n, n)")
	}
}

// TestSimMatchesNativeOnRandomOps is the differential check of the
// transcribed protocol. One seeded single-threaded sequence of
// grow/arrive/depart runs on a native snzi.Tree and on a model Tree,
// each op applied through the handles the tree's own Grow returned.
// Nodes are compared by position (the left/right path from the root),
// so a model that returns or links its children differently diverges
// here even while every query stays right. After every op the trees
// must have the same shape and the same surplus at every node, and
// every arrive depth, every depart's zero report and both queries
// must agree.
func TestSimMatchesNativeOnRandomOps(t *testing.T) {
	type handle struct {
		native *snzi.Node
		model  *Node
	}
	native := snzi.NewTree(0)
	sim := memmodel.New(3)
	model := NewTree(sim, 0)
	g := rng.NewXoshiro(77)
	var failure string
	sim.Spawn(func(e *memmodel.Env) {
		nodes := []handle{{native.Root(), model.Root()}}
		var pending []handle
		for i := 0; i < 600 && failure == ""; i++ {
			if len(pending) > 0 && g.Uint64n(2) == 0 {
				j := int(g.Uint64n(uint64(len(pending))))
				h := pending[j]
				pending[j] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				if nz, mz := h.native.Depart(), h.model.Depart(e); nz != mz {
					failure = fmt.Sprintf("op %d: depart zero report native %v, model %v", i, nz, mz)
				}
			} else {
				h := nodes[g.Uint64n(uint64(len(nodes)))]
				if g.Uint64n(3) == 0 {
					_, _, grown := h.native.Children()
					heads := g.Uint64n(4) != 0
					nl, nr := h.native.Grow(heads)
					ml, mr := h.model.Grow(e, heads)
					if nl != nr {
						if !grown {
							nodes = append(nodes, handle{nl, ml}, handle{nr, mr})
						}
						h = handle{nl, ml}
						if g.Uint64n(2) == 0 {
							h = handle{nr, mr}
						}
					}
				}
				if nd, md := h.native.ArriveDepth(), h.model.Arrive(e); nd != md {
					failure = fmt.Sprintf("op %d: arrive depth native %d, model %d", i, nd, md)
				}
				pending = append(pending, h)
			}
			if nq, mq := native.Query(), model.Query(e); nq != mq || nq != (len(pending) > 0) {
				failure = fmt.Sprintf("op %d: query native %v, model %v, %d pending", i, nq, mq, len(pending))
			}
			if d := diffTrees(native.Root(), model.Root(), "root"); d != "" && failure == "" {
				failure = fmt.Sprintf("op %d: %s", i, d)
			}
		}
	})
	sim.Run()
	if failure != "" {
		t.Fatal(failure)
	}
	if native.NodeCount() < 50 {
		t.Fatalf("sequence grew only %d nodes", native.NodeCount())
	}
}

// diffTrees walks a native and a model subtree in step and describes
// the first position whose shape or surplus differs, or returns "".
// The model's words are decoded with internal/snzi's layout helpers.
func diffTrees(n *snzi.Node, m *Node, path string) string {
	sim := m.tree.sim
	w := sim.Peek(m.word)
	var whole int64
	var half bool
	if m.parent == nil {
		c, _, _ := snzi.UnpackRoot(w)
		whole = int64(c)
	} else {
		c, _ := snzi.UnpackCV(w)
		whole, half = int64(c/2), c%2 == 1
	}
	if nw, nh := n.Surplus(); nw != whole || nh != half {
		return fmt.Sprintf("%s surplus native (%d, ½=%v), model (%d, ½=%v)", path, nw, nh, whole, half)
	}
	nl, nr, grown := n.Children()
	cw := sim.Peek(m.children)
	if grown != (cw != 0) {
		return fmt.Sprintf("%s children native %v, model %v", path, grown, cw != 0)
	}
	if !grown {
		return ""
	}
	li, ri := unpackChildren(cw)
	if d := diffTrees(nl, m.tree.nodes[li], path+".L"); d != "" {
		return d
	}
	return diffTrees(nr, m.tree.nodes[ri], path+".R")
}

func TestIndegree2CompletesAllAlgorithms(t *testing.T) {
	for _, alg := range simAlgorithms() {
		for _, p := range []int{1, 4, 16} {
			res := RunIndegree2(Indegree2Config{Threads: p, N: 64, Algorithm: alg, Seed: 3})
			if res.Counters != 63 { // one counter per internal node
				t.Fatalf("%s P=%d: %d counters, want 63", alg.Name(), p, res.Counters)
			}
			// Balance per counter: 1 initial + 2 increments = 3 decrements,
			// over 63 counters plus the root counter's single decrement.
			if res.Increments.Count != 2*63 {
				t.Fatalf("%s P=%d: %d increments", alg.Name(), p, res.Increments.Count)
			}
			if res.Decrements.Count != res.Increments.Count+64 {
				t.Fatalf("%s P=%d: %d decrements vs %d increments",
					alg.Name(), p, res.Decrements.Count, res.Increments.Count)
			}
			if res.String() == "" {
				t.Fatal("empty string")
			}
		}
	}
}

// TestIndegree2AllocationCost: the fixed-depth baseline pays charged
// construction steps per finish block; the dynamic in-counter and
// fetch-and-add pay none (their construction is plain allocation).
func TestIndegree2AllocationCost(t *testing.T) {
	fixed := RunIndegree2(Indegree2Config{Threads: 4, N: 128, Algorithm: FixedSNZI{Depth: 4}, Seed: 1})
	dyn := RunIndegree2(Indegree2Config{Threads: 4, N: 128, Algorithm: Dynamic{Threshold: 1}, Seed: 1})
	if fixed.AllocStepsPerCounter() < 10 { // 2^4−1 interior links
		t.Fatalf("fixed alloc steps/counter = %.1f, want ≥ 10", fixed.AllocStepsPerCounter())
	}
	if dyn.AllocStepsPerCounter() != 0 {
		t.Fatalf("dyn alloc steps/counter = %.1f, want 0", dyn.AllocStepsPerCounter())
	}
}

// TestIndegree2LowContention: with one counter per finish block, even
// fetch-and-add sees near-zero contention — the reason Figure 10's
// ordering differs from Figure 8's.
func TestIndegree2LowContention(t *testing.T) {
	res := RunIndegree2(Indegree2Config{Threads: 32, N: 256, Algorithm: FetchAdd{}, Seed: 5})
	if s := res.StallsPerOp(); s > 1.0 {
		t.Fatalf("indegree2 fetchadd stalls/op = %.3f, want ≈ 0 (counters are private)", s)
	}
	fanin := RunFanin(FaninConfig{Threads: 32, N: 256, Algorithm: FetchAdd{}, Seed: 5})
	if fanin.StallsPerOp() < 5*res.StallsPerOp() {
		t.Fatalf("fanin (%.2f) should contend far more than indegree2 (%.2f)",
			fanin.StallsPerOp(), res.StallsPerOp())
	}
}

// TestAdversarialPolicy: fetch-and-add must remain heavily contended
// under the contention-biased scheduler, and the in-counter's O(1)
// bounds (Theorem 4.9, Corollary 4.7) must survive it.
func TestAdversarialPolicy(t *testing.T) {
	adv := RunFanin(FaninConfig{Threads: 32, N: 512, Algorithm: FetchAdd{}, Seed: 9,
		Policy: memmodel.AdversarialPolicy})
	if adv.StallsPerOp() < 8 { // Θ(P) at P=32
		t.Fatalf("fetch-add under adversary: %.2f stalls/op, want Θ(P)", adv.StallsPerOp())
	}
	dynAdv := RunFanin(FaninConfig{Threads: 32, N: 512, Algorithm: Dynamic{Threshold: 1}, Seed: 9,
		Policy: memmodel.AdversarialPolicy})
	if s := dynAdv.StallsPerOp(); s > 6 {
		t.Fatalf("in-counter under adversary: %.2f stalls/op, want O(1) (≤ 6)", s)
	}
	if dynAdv.MaxArrives > 3 {
		t.Fatalf("in-counter under adversary: %d arrives (bound 3)", dynAdv.MaxArrives)
	}
}
