package snzi

// Weighted root operations: arrive/depart k whole units of surplus in
// one CAS. They exist for the batched counter frontend
// (internal/counter's delta slots), which accumulates increments and
// decrements worker-locally and applies the net delta to the root in a
// single shared RMW — the VSA-style amortization of the ROADMAP's
// batched-frontend item. They run the root protocol of protocol.go
// (arriveRoot/departRoot, which Arrive and Depart call with k = 1), so
// a weighted op linearizes exactly like k consecutive unweighted ones
// that happen to land in one step.
//
// Both operations are root-only: interior nodes carry the half-unit
// phase-change protocol, whose helping discipline is per-unit, and the
// batched frontend deliberately concentrates its (rare, batch-divided)
// flushes on the root word. Both return the number of CAS retries the
// update suffered — the caller's contention signal; the adaptive
// counter's demotion heuristic feeds on a streak of retry-free
// flushes.

// ArriveRootN adds k units of surplus to the root in one CAS. It
// panics if n is not a root or k is zero. The returned retries count
// is the number of failed CAS attempts before the update landed.
func (n *Node) ArriveRootN(k uint64) (retries int) {
	if n.parent != nil {
		panic("snzi: ArriveRootN on a non-root node")
	}
	if k == 0 {
		panic("snzi: ArriveRootN with zero weight")
	}
	return n.arriveRoot(k)
}

// DepartRootN removes k units of surplus from the root in one CAS. It
// panics if n is not a root, k is zero, or the root's surplus is below
// k (an unbalanced depart: the caller owed fewer units than it tried
// to discharge). It returns whether this call brought the whole tree's
// surplus to zero — the same exactly-once zero report as Depart — and
// the number of failed CAS attempts before the update landed.
func (n *Node) DepartRootN(k uint64) (zero bool, retries int) {
	if n.parent != nil {
		panic("snzi: DepartRootN on a non-root node")
	}
	if k == 0 {
		panic("snzi: DepartRootN with zero weight")
	}
	return n.departRoot(k)
}
