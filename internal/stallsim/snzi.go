package stallsim

// This file holds the simulated SNZI tree. Its words use internal/snzi's
// layout helpers; the arrive/depart/grow control flow is transcribed
// from internal/snzi (see doc.go).

import (
	"repro/internal/memmodel"
	"repro/internal/snzi"
)

// Tree is a SNZI tree in the simulated memory.
type Tree struct {
	sim   *memmodel.Sim
	nodes []*Node // index = id; children ids are consecutive
}

// Node is one simulated SNZI node.
type Node struct {
	tree     *Tree
	id       int
	word     memmodel.Addr
	ind      memmodel.Addr // root only
	children memmodel.Addr // 0 = none, else packChildren(left, right)
	parent   *Node
	left     bool
}

// packChildren encodes both child ids (+1 so that 0 means "no
// children") into one word. Child ids are not consecutive in the node
// table: allocation is a scheduling point, so two threads' allocations
// interleave.
func packChildren(l, r int) uint64 { return uint64(l+1)<<32 | uint64(r+1) }

func unpackChildren(w uint64) (l, r int) { return int(w>>32) - 1, int(w&0xffffffff) - 1 }

// NewTree allocates a one-node tree with the given initial surplus.
// Must be called before Sim.Run (it allocates without an Env).
func NewTree(sim *memmodel.Sim, initial uint64) *Tree {
	return newTreeWith(sim, sim.Alloc, initial)
}

// NewTreeInEnv allocates a one-node tree from inside a running
// simulated thread (used by workloads that create counters per finish
// block, like indegree2).
func NewTreeInEnv(e *memmodel.Env, initial uint64) *Tree {
	return newTreeWith(e.Sim(), e.Alloc, initial)
}

func newTreeWith(sim *memmodel.Sim, alloc func(uint64) memmodel.Addr, initial uint64) *Tree {
	t := &Tree{sim: sim}
	root := &Node{tree: t, id: 0, left: true}
	root.word = alloc(snzi.PackRoot(initial, false, 0))
	root.ind = alloc(snzi.PackInd(initial > 0, 0))
	root.children = alloc(0)
	t.nodes = append(t.nodes, root)
	return t
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.nodes[0] }

// NodeCount returns the number of nodes allocated.
func (t *Tree) NodeCount() int { return len(t.nodes) }

// Query reads the root indicator (one trivial step).
func (t *Tree) Query(e *memmodel.Env) bool { return snzi.IndValue(e.Read(t.Root().ind)) }

// Grow returns n's children, creating them if absent and heads is
// true; like the native version it returns (n, n) when n remains
// childless. The child-pointer installation is one shared CAS.
func (n *Node) Grow(e *memmodel.Env, heads bool) (*Node, *Node) {
	if heads && e.Read(n.children) == 0 {
		l := n.tree.newChild(e, n, true)
		r := n.tree.newChild(e, n, false)
		e.CAS(n.children, 0, packChildren(l.id, r.id))
	}
	c := e.Read(n.children)
	if c == 0 {
		return n, n
	}
	li, ri := unpackChildren(c)
	return n.tree.nodes[li], n.tree.nodes[ri]
}

func (t *Tree) newChild(e *memmodel.Env, parent *Node, left bool) *Node {
	// The Allocs are scheduling points; the id must be assigned in the
	// same uninterrupted stretch as the append or two threads reserve
	// the same slot.
	word := e.Alloc(snzi.PackCV(0, 0))
	children := e.Alloc(0)
	c := &Node{tree: t, parent: parent, left: left, word: word, children: children}
	c.id = len(t.nodes)
	t.nodes = append(t.nodes, c)
	return c
}

// Arrive performs the SNZI arrive protocol starting at n. It returns
// the depth of the propagation path — the number of tree levels the
// operation touched, the quantity Corollary 4.7 bounds at 3 for
// in-counter increments (helping retries at one level are undone and
// do not inflate the count).
func (n *Node) Arrive(e *memmodel.Env) int {
	if n.parent == nil {
		n.arriveRoot(e)
		return 1
	}
	depth := 1
	succ := false
	undo := 0
	for !succ {
		w := e.Read(n.word)
		c, v := snzi.UnpackCV(w)
		switch {
		case c >= 2:
			if e.CAS(n.word, w, snzi.PackCV(c+2, v)) {
				succ = true
			}
			continue
		case c == 0:
			if e.CAS(n.word, w, snzi.PackCV(1, v+1)) {
				succ = true
				c, v = 1, v+1
			} else {
				continue
			}
		}
		if c == 1 {
			if d := 1 + n.parent.Arrive(e); d > depth {
				depth = d
			}
			if !e.CAS(n.word, snzi.PackCV(1, v), snzi.PackCV(2, v)) {
				undo++
			}
		}
	}
	for ; undo > 0; undo-- {
		n.parent.Depart(e)
	}
	return depth
}

func (n *Node) arriveRoot(e *memmodel.Env) {
	var neww uint64
	for {
		w := e.Read(n.word)
		c, a, v := snzi.UnpackRoot(w)
		if c == 0 {
			neww = snzi.PackRoot(1, true, v+1)
		} else {
			neww = snzi.PackRoot(c+1, a, v)
		}
		if e.CAS(n.word, w, neww) {
			break
		}
	}
	if _, a, _ := snzi.UnpackRoot(neww); a {
		for {
			iw := e.Read(n.ind)
			if e.CAS(n.ind, iw, snzi.PackInd(true, snzi.IndVer(iw)+1)) {
				break
			}
		}
		c, _, v := snzi.UnpackRoot(neww)
		e.CAS(n.word, neww, snzi.PackRoot(c, false, v))
	}
}

// Depart performs the SNZI depart protocol starting at n; it returns
// true iff this call brought the tree's surplus to zero.
func (n *Node) Depart(e *memmodel.Env) bool {
	cur := n
	for cur.parent != nil {
		for {
			w := e.Read(cur.word)
			c, v := snzi.UnpackCV(w)
			if c < 2 {
				panic("stallsim: depart on interior node with surplus < 1")
			}
			if e.CAS(cur.word, w, snzi.PackCV(c-2, v)) {
				if c != 2 {
					return false
				}
				break
			}
		}
		cur = cur.parent
	}
	return cur.departRoot(e)
}

func (n *Node) departRoot(e *memmodel.Env) bool {
	for {
		w := e.Read(n.word)
		c, _, v := snzi.UnpackRoot(w)
		if c == 0 {
			panic("stallsim: depart on root with surplus 0")
		}
		if !e.CAS(n.word, w, snzi.PackRoot(c-1, false, v)) {
			continue
		}
		if c >= 2 {
			return false
		}
		for {
			iw := e.Read(n.ind)
			w2 := e.Read(n.word)
			if _, _, v2 := snzi.UnpackRoot(w2); v2 != v {
				return false
			}
			if e.CAS(n.ind, iw, snzi.PackInd(false, snzi.IndVer(iw)+1)) {
				return true
			}
		}
	}
}
