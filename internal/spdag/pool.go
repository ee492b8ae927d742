package spdag

// This file implements the zero-allocation vertex path: dead vertices
// are recycled through per-worker freelists threaded via ExecContext,
// with a process-wide sync.Pool as overflow/underflow, so that
// steady-state Spawn/Chain/Signal cycles reuse storage instead of
// exercising the allocator.
//
// The safety argument mirrors the paper's own handle discipline: a
// vertex is provably dead after its terminal structural operation
// (Spawn, Chain, or Signal), and the runtime knows two points at which
// a dead vertex is additionally *unreferenced*:
//
//   - the tail of Execute — the executing worker holds the only
//     reference to the vertex it just ran (the frontends only retain
//     the per-computation record, never vertices, past execution);
//   - the tail of a continuation-passing task (package nested's wrap),
//     for continuation vertices that were adopted inline and therefore
//     never pass through Execute.
//
// Two kinds of vertex are exempt: vertices of the Make root/final
// pair, which the Run machinery touches from the submitting goroutine
// (Abort on cancellation, Counter/Err after completion) concurrently
// with the tail of their Execute — these are created pinned and are
// simply left to the collector; and vertices of a dag with a Recorder
// attached keep working too, because a reused vertex is re-announced
// to the recorder under a fresh id.
//
// A recycled vertex is reset at *reuse* time, not at recycle time:
// stale reads of a dead vertex (diagnostics, tests inspecting a
// finished dag) keep seeing its final state until the storage is
// actually handed to a new vertex.
//
// A recycled finish vertex still carries its dependency counter, and
// the counter travels with it: when the vertex's storage backs a new
// finish vertex, counter.Renew resets the old counter in place if it
// never promoted, instead of allocating one. The tail of Execute is a
// last-reference point for the counter too — its zero report came
// before the vertex could run, and no operation reaches a drained,
// never-promoted counter (DESIGN.md §5). So that plain vertices do not
// consume counter-carrying ones (and drop their counters), each
// context keeps two freelists: fins for vertices with a counter, free
// for the rest.

import (
	"sync"

	"repro/internal/counter"
	"repro/internal/rng"
)

// freeListCap bounds each per-context freelist; beyond it, recycled
// vertices overflow into the shared pool so one worker executing the
// whole dag (p = 1, or a victim-heavy steal pattern) cannot hoard
// every vertex of the computation.
const freeListCap = 512

// vertexPool is the process-wide overflow pool of last resort, shared
// by all dags: contexts not owned by a scheduler (inline executions,
// hand-built ExecContexts) overflow and underflow here. Scheduler
// workers overflow into their NodePools instead, so on a multi-node
// topology the storage a node's workers recycle stays home.
// Vertices are fully reset before reuse, so cross-dag (and cross-pool)
// sharing is safe.
var vertexPool = sync.Pool{New: func() any { return new(Vertex) }}

// NodePools is a set of per-locality-node vertex overflow pools — the
// topology-aware replacement for the single shared pool. A scheduler
// creates one NodePools sized to its topology and points every
// worker's ExecContext at it (Pool + Node); a worker's freelist then
// overflows into — and a retiring worker's DrainFree returns to — the
// pool of the node the worker runs on, so vertex storage recycled on
// one socket is rehomed to that socket's workers instead of bouncing
// across the interconnect. Each per-node pool is a sync.Pool: sharded
// and GC-aware exactly like the process-wide fallback.
//
// Correctness does not depend on the homing: a vertex is fully reset
// at reuse, so a stolen vertex executed (and recycled) on the "wrong"
// node merely migrates its storage there — the cost is locality, never
// consistency.
type NodePools struct {
	pools []sync.Pool
}

// NewNodePools creates one overflow pool per locality node (nodes < 1
// is treated as 1).
func NewNodePools(nodes int) *NodePools {
	if nodes < 1 {
		nodes = 1
	}
	p := &NodePools{pools: make([]sync.Pool, nodes)}
	for i := range p.pools {
		p.pools[i].New = func() any { return new(Vertex) }
	}
	return p
}

// Nodes returns the number of per-node pools.
func (p *NodePools) Nodes() int { return len(p.pools) }

// get takes a vertex from the node's pool (allocating when empty).
func (p *NodePools) get(node int) *Vertex {
	return p.pools[p.clamp(node)].Get().(*Vertex)
}

// put returns a vertex to the node's pool.
func (p *NodePools) put(node int, v *Vertex) {
	p.pools[p.clamp(node)].Put(v)
}

// clamp guards against contexts configured with a node id outside the
// pool set (a topology/scheduler mismatch is a bug, but the pools must
// not turn it into a panic on the hot path).
func (p *NodePools) clamp(node int) int {
	if node < 0 || node >= len(p.pools) {
		return 0
	}
	return node
}

// inlineContext packs an ExecContext and its generator into a single
// allocation for executions that arrive without a worker context
// (Execute(nil), or structural operations on vertices never executed
// by a scheduler). Descendant vertices inherit the context, so the
// lazy path allocates once per execution chain, not once per vertex.
type inlineContext struct {
	ctx ExecContext
	g   rng.Xoshiro256ss
}

func newInlineContext() *ExecContext {
	ic := &inlineContext{}
	ic.g.Reseed(rng.AutoSeed())
	ic.ctx.G = &ic.g
	return &ic.ctx
}

// grab takes a recycled vertex from the context freelists (worker-local,
// no synchronization), falling back to the context's node pool and
// then the process-wide pool. A finish vertex (one that needs a
// counter) prefers the list of vertices that carry one, every other
// vertex the plain list; grab returns the counter the vertex carried
// (nil if none) for newVertex to renew.
func grab(ctx *ExecContext, finish bool) (*Vertex, counter.Counter) {
	var v *Vertex
	switch {
	case ctx == nil:
		v = vertexPool.Get().(*Vertex)
	case finish && len(ctx.fins) > 0:
		v = pop(&ctx.fins)
	case len(ctx.free) > 0:
		v = pop(&ctx.free)
	case len(ctx.fins) > 0:
		v = pop(&ctx.fins)
	case ctx.Pool != nil:
		v = ctx.Pool.get(ctx.Node)
	default:
		v = vertexPool.Get().(*Vertex)
	}
	spent := v.ctr
	v.reset()
	return v, spent
}

// pop removes the last vertex of a non-empty freelist.
func pop(list *[]*Vertex) *Vertex {
	n := len(*list) - 1
	v := (*list)[n]
	(*list)[n] = nil
	*list = (*list)[:n]
	return v
}

// reset clears every field of a recycled vertex before reuse with one
// plain store; newVertex reassigns the identity fields on top. The
// atomic fields need no fenced stores here: no other goroutine can
// reach a vertex between its recycle and its reuse (DESIGN.md §5).
func (v *Vertex) reset() { *v = Vertex{} }

// DrainFree hands every vertex of the context's freelists — and the
// freelists' own backing arrays — back to the overflow pool it draws
// from: the owner node's pool on a scheduler context (so a retiring
// worker's vertices stay home for the slot's node, ready for the next
// worker spawned there), or the process-wide shared pool otherwise. A
// retiring scheduler worker calls it so a dormant slot does not hoard
// up to freeListCap vertices per list that other workers could be
// reusing.
// Owner-only, like every freelist operation; after DrainFree the
// context is still usable (grab falls back to the pools and recycle
// re-grows the list lazily).
func (ctx *ExecContext) DrainFree() {
	ctx.drain(ctx.free)
	ctx.drain(ctx.fins)
	ctx.free, ctx.fins = nil, nil
}

func (ctx *ExecContext) drain(list []*Vertex) {
	for i, v := range list {
		list[i] = nil
		if ctx.Pool != nil {
			ctx.Pool.put(ctx.Node, v)
		} else {
			vertexPool.Put(v)
		}
	}
}

// Recycle returns a dead vertex to the worker-local pool of the
// execution context it last ran under. It is exported for frontends
// that retire vertices outside Execute — package nested recycles
// adopted continuation vertices (which never pass through Execute) at
// the task boundary — and must only be called by a caller that owns
// the final reference: after Recycle the vertex may be reused, under a
// different identity, at any time.
//
// Recycling a live vertex is a discipline violation and panics.
// Pinned vertices (the Make root/final pair) are silently skipped, as
// the Run machinery may still touch them.
func (v *Vertex) Recycle() {
	if !v.dead.Load() {
		panic("spdag: Recycle on a live vertex (only a vertex past its terminal operation can be recycled)")
	}
	v.recycle()
}

func (v *Vertex) recycle() {
	if v.pinned {
		return
	}
	counter.Park(v.ctr) // poisons it under -tags nestedchecks until renewed
	ctx := v.ctx
	switch {
	case ctx == nil:
	case v.ctr == nil && len(ctx.free) < freeListCap:
		ctx.free = append(ctx.free, v)
		return
	case v.ctr != nil && len(ctx.fins) < freeListCap:
		ctx.fins = append(ctx.fins, v)
		return
	}
	if ctx != nil && ctx.Pool != nil {
		// Freelist full: overflow to the executing worker's own node —
		// the vertex's storage is hot in that node's cache right now.
		ctx.Pool.put(ctx.Node, v)
		return
	}
	vertexPool.Put(v)
}
