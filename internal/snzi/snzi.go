// Package snzi implements the SNZI (Scalable Non-Zero Indicator) data
// structure of Ellen, Lev, Luchangco and Moir (PODC 2007), extended
// with the dynamic grow operation of Acar, Ben-David and Rainey
// (PPoPP 2017, §2).
//
// A SNZI tree is a relaxed counter: Arrive increments it, Depart
// decrements it, and Query reports only whether the count is non-zero.
// The tree filters updates on the way to the root — an arrival or
// departure at a node propagates to the parent only when the node's
// surplus phase-changes between zero and non-zero — so operations on
// different nodes mostly touch disjoint memory, which is what makes
// the structure low-contention.
//
// # Protocol
//
// Every node packs its (count, version) pair into a single 64-bit word
// updated by compare-and-swap. Interior node counts live in ℕ ∪ {½}:
// the ½ state marks an in-progress zero-to-nonzero phase change whose
// parent arrival has not yet been completed; concurrent arrivers help
// complete it. The root additionally carries an announce bit and a
// separate indicator bit I; Query reads only I, so queries never
// contend with updates on interior nodes.
//
// Counts are represented internally in half-units (stored c of 1 means
// surplus ½, stored 2 means surplus 1, …) so the whole interior state
// fits one word.
//
// # Dynamic growth
//
// Grow (PPoPP'17 Figure 2) extends a leaf with two fresh children. The
// caller supplies the result of a biased coin flip; per the paper the
// flip must be evaluated before the children pointer is read, which
// the Grow API guarantees because Go evaluates arguments before the
// call. Children are created with surplus 0, so linking them never
// perturbs the surplus of the tree.
package snzi

import (
	"fmt"
	"sync/atomic"
)

// Interior-node word layout: count (half-units) in the high 32 bits,
// version in the low 32 bits.
//
// Root word layout: count (whole units) in the high 31 bits, announce
// bit at bit 32, version in the low 32 bits.
//
// The layout helpers are exported so that the stall model
// (internal/stallsim) lays out its simulated words with the same code.
const (
	versionBits = 32
	versionMask = 1<<versionBits - 1
	announceBit = uint64(1) << versionBits
	rootCShift  = versionBits + 1
)

// PackCV packs an interior node's count (in half-units) and version.
func PackCV(c, v uint64) uint64 { return c<<versionBits | v&versionMask }

// UnpackCV splits an interior node's word into count and version.
func UnpackCV(w uint64) (c, v uint64) { return w >> versionBits, w & versionMask }

// PackRoot packs the root's count (whole units), announce bit and
// version.
func PackRoot(c uint64, a bool, v uint64) uint64 {
	w := c<<rootCShift | v&versionMask
	if a {
		w |= announceBit
	}
	return w
}

// UnpackRoot splits the root's word into count, announce bit and
// version.
func UnpackRoot(w uint64) (c uint64, a bool, v uint64) {
	return w >> rootCShift, w&announceBit != 0, w & versionMask
}

// Children holds the two children installed by a successful Grow.
// Both pointers are always non-nil.
type Children struct {
	Left, Right *Node
}

// Node is a single SNZI node. The zero value is not usable; nodes are
// created by NewTree (the root) and Grow (interior nodes).
//
// All methods are safe for concurrent use.
type Node struct {
	word     atomic.Uint64
	children atomic.Pointer[Children]
	parent   *Node // nil iff this node is the tree root
	tree     *Tree
	left     bool   // true if this node is the left child of its parent (root: true)
	depth    uint32 // distance from the root, for diagnostics
	ops      atomic.Uint64
	// ind is meaningful only on the root node. It packs the indicator
	// bit (bit 0) with a modification counter (the remaining bits) so
	// that the depart protocol can emulate the LL/SC update the
	// original paper uses: clearing the indicator is a CAS that fails
	// if any write intervened since it was read. It is true exactly
	// when the linearized surplus of the whole tree is positive.
	ind atomic.Uint64
	_   [8]byte // pad Node to exactly one 64-byte cache line (asserted in grow.go)
}

// PackInd packs the root indicator bit with its modification counter.
func PackInd(b bool, ver uint64) uint64 {
	w := ver << 1
	if b {
		w |= 1
	}
	return w
}

// IndValue returns the indicator bit of an indicator word.
func IndValue(w uint64) bool { return w&1 != 0 }

// IndVer returns the modification counter of an indicator word.
func IndVer(w uint64) uint64 { return w >> 1 }

// Tree owns a SNZI tree: the root node plus bookkeeping shared by all
// nodes (node counts, optional instrumentation, pruning policy).
type Tree struct {
	root      *Node
	nodes     atomic.Int64 // currently linked nodes
	allocated atomic.Int64 // nodes ever linked
	instr     *Instr
	prune     bool
}

// Option configures a Tree at construction time.
type Option func(*Tree)

// WithInstrumentation enables CAS-attempt/failure and operation
// counting on the tree. Instrumentation adds two atomic updates per
// shared-memory step and is meant for tests and contention studies,
// not for peak-throughput runs.
func WithInstrumentation() Option {
	return func(t *Tree) { t.instr = &Instr{} }
}

// WithPruning enables the space management of PPoPP'17 §B: whenever a
// depart phase-changes a node's surplus back to zero, that node's
// subtree is unlinked so the collector can reclaim it. Lemma B.1 shows
// the unlinked nodes can never be reached by live handles when the
// tree is driven through the in-counter discipline with grow
// probability 1; under other uses unlinking is still safe for
// correctness (operations reach nodes through their own pointers and
// parent links, which pruning leaves intact) but may not reclaim
// space, because a stale handle can keep an orphaned subtree alive or
// re-grow a pruned node.
func WithPruning() Option {
	return func(t *Tree) { t.prune = true }
}

// NewTree creates a SNZI tree consisting of a single root node with
// the given initial surplus. initial must be non-negative.
func NewTree(initial int, opts ...Option) *Tree {
	if initial < 0 {
		panic(fmt.Sprintf("snzi: negative initial surplus %d", initial))
	}
	t := &Tree{}
	for _, o := range opts {
		o(t)
	}
	r := &Node{tree: t, left: true}
	r.word.Store(PackRoot(uint64(initial), false, 0))
	r.ind.Store(PackInd(initial > 0, 0))
	t.root = r
	t.nodes.Store(1)
	t.allocated.Store(1)
	return t
}

// Root returns the root node of the tree. The root is the only valid
// receiver for Query, and it is where the in-counter's initial handles
// point.
func (t *Tree) Root() *Node { return t.root }

// Query reports whether the tree's surplus (arrivals minus departures,
// plus the initial surplus) is non-zero. It performs a single shared
// read of the root indicator and is linearizable with respect to
// Arrive and Depart (Ellen et al., PODC'07).
func (t *Tree) Query() bool { return IndValue(t.root.ind.Load()) }

// NodeCount returns the number of nodes currently linked into the tree
// (the artifact's nb_incounter_nodes statistic). Without WithPruning
// it equals AllocatedNodes.
func (t *Tree) NodeCount() int64 { return t.nodes.Load() }

// AllocatedNodes returns the number of nodes ever linked into the
// tree, ignoring pruning.
func (t *Tree) AllocatedNodes() int64 { return t.allocated.Load() }

// Instr returns the instrumentation block, or nil if the tree was
// created without WithInstrumentation.
func (t *Tree) Instr() *Instr { return t.instr }

// Parent returns the node's parent, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// IsRoot reports whether n is the root of its tree.
func (n *Node) IsRoot() bool { return n.parent == nil }

// IsLeft reports whether n is the left child of its parent. The root
// counts as a left child by convention; the in-counter uses this to
// choose which fresh child receives the arrive of an increment
// (PPoPP'17 Figure 5, line 22).
func (n *Node) IsLeft() bool { return n.left }

// Depth returns the node's distance from the root.
func (n *Node) Depth() int { return int(n.depth) }

// Children returns the node's children and whether they exist.
func (n *Node) Children() (left, right *Node, ok bool) {
	c := n.children.Load()
	if c == nil {
		return nil, nil, false
	}
	return c.Left, c.Right, true
}

// Surplus returns the node's current surplus as a pair (whole, half):
// whole full units plus one extra half unit if half is true. It is a
// diagnostic snapshot, not linearizable with concurrent updates.
func (n *Node) Surplus() (whole int64, half bool) {
	w := n.word.Load()
	if n.parent == nil {
		c, _, _ := UnpackRoot(w)
		return int64(c), false
	}
	c, _ := UnpackCV(w)
	return int64(c / 2), c%2 == 1
}

// HasSurplus reports whether the node's surplus is currently positive
// (counting an in-progress ½ as positive). Diagnostic snapshot.
func (n *Node) HasSurplus() bool {
	w := n.word.Load()
	if n.parent == nil {
		c, _, _ := UnpackRoot(w)
		return c > 0
	}
	c, _ := UnpackCV(w)
	return c > 0
}

// Walk visits every node currently linked into the subtree rooted at
// n, in preorder. It is a diagnostic: concurrent Grow calls may add
// nodes during the walk, in which case they may or may not be visited.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	if c := n.children.Load(); c != nil {
		c.Left.Walk(visit)
		c.Right.Walk(visit)
	}
}
