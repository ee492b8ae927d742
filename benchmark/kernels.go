package main

import (
	"math"
	"math/rand"

	"repro"
)

// A kernel is one batch computation, built once during set-up as tables
// of repro.Task values: the task for a level spawns two tasks of the
// level below by reading the table, so running the kernel creates no
// closure per op or per spawn and every allocation an op makes is the
// runtime's own.
type kernel struct {
	root repro.Task // handed to Run, op after op

	// Shape, exact: Async calls and finish blocks one op performs (the
	// top-level finish of Run not counted).
	asyncs, finishes int64

	built int // Task values constructed for this kernel; fixed after set-up
}

// vertices is the closed-form number of dag vertices one op creates:
// Run makes a root and a final vertex, every Async spawns two (the
// child and the caller's continuation), every finish block chains two
// (the body and the continuation).
func (k *kernel) vertices() int64 { return 2 + 2*k.asyncs + 2*k.finishes }

// executed is the closed-form number of vertices one op executes: the
// root and the final vertex, each async's child (its continuation runs
// inline in the caller), and both vertices of every finish block.
func (k *kernel) executed() int64 { return 2 + k.asyncs + 2*k.finishes }

func (k *kernel) task(f repro.Task) repro.Task {
	k.built++
	return f
}

func noop(*repro.Ctx) {}

// faninChain returns the Figure 6 task table for a fan-in of n leaves
// under the caller's finish block: the task of size m ≥ 2 asyncs two
// tasks of size m/2 (the artifact's fanin_rec, which halves with
// integer division). It returns the top task and the asyncs it performs.
func (k *kernel) faninChain(n uint64) (repro.Task, int64) {
	top, asyncs := k.task(noop), int64(0)
	for m := n; m >= 2; m /= 2 {
		child := top
		top = k.task(func(c *repro.Ctx) { c.Async(child); c.Async(child) })
		asyncs = 2 + 2*asyncs
	}
	return top, asyncs
}

// newFanin is the Figure 6 kernel: n leaves by recursive binary Async,
// all joining the one top-level finish of the Run.
func newFanin(n uint64) *kernel {
	k := &kernel{}
	k.root, k.asyncs = k.faninChain(n)
	return k
}

// newIndegree2 is the Figure 7 kernel: the fan-in shape, but every fork
// joins in a finish block of its own, so an op creates, drains and
// releases one cold counter per internal node.
func newIndegree2(n uint64) *kernel {
	k := &kernel{}
	fork := k.task(noop)
	for m := n; m >= 2; m /= 2 {
		child := fork
		body := k.task(func(c *repro.Ctx) { c.Async(child); c.Async(child) })
		fork = k.task(func(c *repro.Ctx) { c.Finish(body) })
		k.finishes = 1 + 2*k.finishes
		k.asyncs = 2 + 2*k.asyncs
	}
	k.root = fork
	return k
}

// zipfShares splits leaves over keys in proportion to 1/rank^s, every
// key getting at least one leaf. It depends on nothing but its
// arguments: the seed only permutes the order the keys are spawned in.
func zipfShares(leaves uint64, keys int, s float64) []uint64 {
	w := make([]float64, keys)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	shares := make([]uint64, keys)
	for i := range shares {
		shares[i] = max(1, uint64(math.Round(float64(leaves)*w[i]/sum)))
	}
	return shares
}

// zipfOrder is the order the Zipf ladder's root spawns its keys in: a
// permutation of the key ranks drawn from seed.
func zipfOrder(keys int, seed uint64) []int {
	return rand.New(rand.NewSource(int64(seed))).Perm(keys)
}

// newZipfLadder is one Run spawning a finish block per key, the blocks'
// fan-in sizes a Zipf(s) split of leaves: a few hot counters and many
// cold ones live at once. Each key keeps a task table of its own, since
// its share halves along its own chain. seed permutes the order the
// root spawns the keys in.
func newZipfLadder(leaves uint64, keys int, s float64, seed uint64) *kernel {
	k := &kernel{}
	shares := zipfShares(leaves, keys, s)
	blocks := make([]repro.Task, 0, keys)
	for _, rank := range zipfOrder(keys, seed) {
		chain, asyncs := k.faninChain(shares[rank])
		blocks = append(blocks, k.task(func(c *repro.Ctx) { c.Finish(chain) }))
		k.asyncs += asyncs + 1 // the chain, and the root's async of this block
		k.finishes++
	}
	k.root = k.task(func(c *repro.Ctx) {
		for _, b := range blocks {
			c.Async(b)
		}
	})
	return k
}
