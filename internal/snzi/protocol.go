package snzi

// This file implements the arrive/depart protocol: the interior-node
// half-unit protocol and the root announce-bit/indicator protocol,
// following Ellen et al. (PODC'07) Figures 3-4, with the one change
// noted in PPoPP'17 §5: Depart reports whether this call brought the
// whole tree's surplus to zero, which is how the sp-dag runtime
// detects readiness without a separate Query.
//
// The original root protocol updates the indicator with LL/SC so that
// a departer's clear fails if any indicator write intervened. Go (and
// x86) only has CAS, so the indicator packs its boolean with a
// modification counter: setting the indicator always bumps the
// counter, and clearing it is a CAS against the previously loaded
// word, which is exactly the load-linked/store-conditional contract.

// Arrive increments the surplus of the tree, starting at node n.
// The change propagates toward the root only while it phase-changes
// nodes from zero to non-zero surplus.
func (n *Node) Arrive() { n.arrive() }

// ArriveDepth is Arrive, additionally reporting the depth of the
// propagation path: the number of tree levels the operation touched
// (1 for an arrive absorbed at n itself, 2 if it reached n's parent,
// …). Helping retries at one level do not inflate the count (their
// net effect is undone), matching the path-length quantity that the
// in-counter analysis bounds at 3 for increments performed through the
// sp-dag discipline (PPoPP'17 Corollary 4.7); tests use this hook to
// check that bound.
func (n *Node) ArriveDepth() int { return n.arrive() }

func (n *Node) arrive() int {
	if n.parent == nil {
		n.arriveRoot(1)
		return 1
	}

	if n.tree.instr != nil {
		n.ops.Add(1)
		n.tree.instr.Arrives.Add(1)
	}

	depth := 1
	succ := false
	undo := 0
	for !succ {
		w := n.word.Load()
		c, v := UnpackCV(w)
		switch {
		case c >= 2: // surplus ≥ 1: plain increment, absorbed here
			if n.cas(w, PackCV(c+2, v)) {
				succ = true
			}
			continue
		case c == 0: // zero: begin a phase change by installing ½
			if n.cas(w, PackCV(1, v+1)) {
				succ = true
				c, v = 1, v+1
			} else {
				continue
			}
		}
		if c == 1 { // ½ in progress (ours or another's): help complete it
			if d := 1 + n.parent.arrive(); d > depth {
				depth = d
			}
			if !n.cas(PackCV(1, v), PackCV(2, v)) {
				// Someone else completed the phase change; our parent
				// arrival was superfluous and must be undone below.
				undo++
			}
		}
	}
	for ; undo > 0; undo-- {
		n.parent.Depart()
	}
	return depth
}

// arriveRoot adds k units to the root in one CAS and returns the
// number of failed CAS attempts before the update landed. An arrive
// from zero sets the announce bit and bumps the version; the indicator
// is then set and the announce bit cleared.
func (n *Node) arriveRoot(k uint64) (retries int) {
	if n.tree.instr != nil {
		n.ops.Add(1)
		n.tree.instr.Arrives.Add(k)
	}
	var neww uint64
	for {
		w := n.word.Load()
		c, a, v := UnpackRoot(w)
		if c == 0 {
			neww = PackRoot(k, true, v+1)
		} else {
			neww = PackRoot(c+k, a, v)
		}
		if n.cas(w, neww) {
			break
		}
		retries++
	}
	if _, a, _ := UnpackRoot(neww); a {
		n.setIndicator()
		c, _, v := UnpackRoot(neww)
		n.cas(neww, PackRoot(c, false, v))
	}
	return retries
}

// setIndicator writes true to the root indicator. Every set bumps the
// indicator's modification counter so that an in-flight clear (which
// is conditional, see departRoot) cannot overwrite a logically newer
// set.
func (n *Node) setIndicator() {
	for {
		w := n.ind.Load()
		if n.ind.CompareAndSwap(w, PackInd(true, IndVer(w)+1)) {
			return
		}
	}
}

// Depart decrements the surplus of the tree, starting at node n. It
// must only be called to match an Arrive that previously started at n
// (the in-counter's valid-execution discipline, PPoPP'17 Definition 1);
// calling it on a node with zero surplus panics, because that state
// implies the caller violated the discipline and the structure's
// invariants no longer hold.
//
// Depart returns true iff this call brought the surplus of the whole
// tree to zero, i.e. iff this call is the unique operation whose
// linearization made Query flip to false.
func (n *Node) Depart() bool {
	cur := n
	for cur.parent != nil {
		if cur.tree.instr != nil {
			cur.ops.Add(1)
			cur.tree.instr.Departs.Add(1)
		}
		for {
			w := cur.word.Load()
			c, v := UnpackCV(w)
			if c < 2 {
				panic("snzi: Depart on an interior node with surplus < 1 (unbalanced depart)")
			}
			if cur.cas(w, PackCV(c-2, v)) {
				if c != 2 {
					return false // no phase change; absorbed here
				}
				// Phase change to zero: under the in-counter discipline
				// no live handle points into cur's subtree any more
				// (Lemma 4.6), so its children can be reclaimed (§B).
				if cur.tree.prune {
					cur.pruneChildren()
				}
				break // propagate to parent
			}
		}
		cur = cur.parent
	}
	zero, _ := cur.departRoot(1)
	return zero
}

// departRoot removes k units from the root in one CAS. It returns
// whether this call brought the whole tree's surplus to zero and the
// number of failed CAS attempts before the update landed.
func (n *Node) departRoot(k uint64) (zero bool, retries int) {
	if n.tree.instr != nil {
		n.ops.Add(1)
		n.tree.instr.Departs.Add(k)
	}
	for {
		w := n.word.Load()
		c, _, v := UnpackRoot(w)
		if c < k {
			panic("snzi: Depart below zero at the root (unbalanced depart)")
		}
		if !n.cas(w, PackRoot(c-k, false, v)) {
			retries++
			continue
		}
		if c > k {
			return false, retries
		}
		// The count just went k → 0. Clear the indicator unless a
		// fresh arrive supersedes us: an arrive from zero bumps the
		// word's version before it sets the indicator, so checking the
		// version between the load-linked read and the conditional
		// store below is sufficient to detect it.
		for {
			iw := n.ind.Load() // "LL"
			w2 := n.word.Load()
			if _, _, v2 := UnpackRoot(w2); v2 != v {
				return false, retries // superseded; the arriver owns the indicator
			}
			if n.ind.CompareAndSwap(iw, PackInd(false, IndVer(iw)+1)) { // "SC"
				// The whole tree is quiescent; reclaim everything below
				// the root (§B).
				if n.tree.prune {
					n.pruneChildren()
				}
				return true, retries
			}
		}
	}
}

// cas performs the node's single-word CAS, with optional accounting.
func (n *Node) cas(old, new uint64) bool {
	ok := n.word.CompareAndSwap(old, new)
	if instr := n.tree.instr; instr != nil {
		instr.CASAttempts.Add(1)
		if !ok {
			instr.CASFailures.Add(1)
		}
	}
	return ok
}

// pruneChildren unlinks n's children pair and subtracts the dropped
// subtree from the live-node count. Operations already holding
// pointers below n are unaffected (parent links stay intact); only the
// downward links are removed so the collector can reclaim the subtree.
func (n *Node) pruneChildren() {
	pair := n.children.Swap(nil)
	if pair == nil {
		return
	}
	removed := int64(0)
	pair.Left.Walk(func(*Node) { removed++ })
	pair.Right.Walk(func(*Node) { removed++ })
	n.tree.nodes.Add(-removed)
	if n.tree.instr != nil {
		n.tree.instr.Pruned.Add(uint64(removed))
	}
}
