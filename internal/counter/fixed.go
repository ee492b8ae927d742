package counter

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/snzi"
)

// FixedSNZI is the fixed-depth SNZI baseline of the paper's
// evaluation (§5): each finish block allocates a complete SNZI tree of
// 2^(Depth+1)−1 nodes up front, and arrives are spread across the
// leaves by hashing, with every depart targeting the node of its
// matching arrive. It uses the prior state of the art (Ellen et al.)
// directly, without the dynamic growth or handle discipline of the
// in-counter: better than fetch-and-add under contention once deep
// enough, but it pays the full tree allocation per finish block, which
// is what sinks it on fine-grained programs like indegree2 (Figure 10).
type FixedSNZI struct {
	Depth int
}

// Name implements Algorithm, matching the artifact's naming.
func (f FixedSNZI) Name() string { return fmt.Sprintf("snzi-%d", f.Depth) }

// New implements Algorithm.
func (f FixedSNZI) New(initial int) Counter {
	tree, leaves := snzi.NewFixedTree(initial, f.Depth)
	return &fixedCounter{tree: tree, leaves: leaves}
}

type fixedCounter struct {
	tree   *snzi.Tree
	leaves []*snzi.Node
}

func (c *fixedCounter) IsZero() bool     { return !c.tree.Query() }
func (c *fixedCounter) NodeCount() int64 { return c.tree.NodeCount() }

func (c *fixedCounter) RootState() State {
	r := c.tree.Root()
	return &fixedState{c: c, pair: core.NewDecPair(r, r)}
}

// Tree exposes the underlying SNZI tree for tests and statistics.
func (c *fixedCounter) Tree() *snzi.Tree { return c.tree }

// fixedState reuses the in-counter's claimable decrement pair so that
// each arrive has exactly one matching depart on the same node — the
// invariant the paper notes the fixed-depth baseline must maintain.
// Unlike the in-counter there is no ordering requirement; the pair is
// just a handoff of the two pending depart obligations to the two
// children.
type fixedState struct {
	c    *fixedCounter
	pair *core.DecPair
}

func (s *fixedState) Increment(g *rng.Xoshiro256ss) (State, State) {
	leaf := s.c.leaves[g.Uint64n(uint64(len(s.c.leaves)))]
	leaf.Arrive()
	inherited := s.pair.Claim()
	pair := core.NewDecPair(inherited, leaf)
	return &fixedState{c: s.c, pair: pair}, &fixedState{c: s.c, pair: pair}
}

func (s *fixedState) Decrement() bool { return s.pair.Claim().Depart() }
