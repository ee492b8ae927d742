// Package spdag implements the series-parallel dag data structure of
// PPoPP'17 §3.1 (Figure 3): the representation of a nested-parallel
// computation that modern parallel runtimes build and schedule.
//
// A computation is a dag of vertices; each vertex carries a body (the
// code it runs), a finish vertex it serially precedes, and a
// dependency counter (an in-counter, or one of the baseline
// algorithms) counting its own unsatisfied dependencies. A vertex
// becomes ready when its counter reaches zero; readiness is detected
// by the unique Decrement call that zeroes the counter, which hands
// the vertex to the runtime's schedule callback.
//
// The three structural operations mirror the paper exactly:
//
//   - Chain (serial composition): the calling vertex dies and is
//     replaced by v→w, with w inheriting the caller's handles.
//   - Spawn (parallel composition): the calling vertex dies and is
//     replaced by two parallel vertices; the finish vertex's counter
//     is incremented once.
//   - Signal (termination): the calling vertex decrements its finish
//     vertex's counter.
//
// Spawn and Chain must be the last structural operation a vertex
// performs; the package panics on use-after-death, which turns
// discipline violations into deterministic failures instead of
// corrupted counters.
package spdag

import (
	"sync/atomic"

	"repro/internal/counter"
	"repro/internal/rng"
)

// Body is the code a vertex runs when scheduled. It receives the
// executing vertex, which it may Chain or Spawn from.
type Body func(self *Vertex)

// ExecContext is the worker-local execution environment threaded
// through vertex execution: the randomness source for the grow coin,
// the worker's local push operation, and the worker's vertex freelist.
// Vertices created while a vertex executes inherit its context, so
// that scheduling them lands in the executing worker's own deque — the
// locality discipline of work-stealing runtimes — instead of going
// through the dag's global schedule callback. A nil Push (or a vertex
// scheduled outside any execution) falls back to the dag-level
// callback.
//
// An ExecContext belongs to exactly one executing goroutine at a time;
// the freelist relies on that single-owner discipline for its
// synchronization-free push/pop.
type ExecContext struct {
	G    *rng.Xoshiro256ss
	Push func(*Vertex)

	// Pool and Node home the context's vertex overflow: a scheduler
	// sets Pool to its per-node pool set and Node to the worker slot's
	// locality node, so storage the worker recycles beyond its private
	// freelist stays on (and is reacquired from) the worker's own node.
	// A nil Pool falls back to the process-wide shared pool.
	Pool *NodePools
	Node int

	// Home, when set by a scheduler, holds this worker's pending
	// counter delta slots (the batched frontend of counter.Adaptive):
	// Spawn and Signal route batch-capable counter states through it so
	// increments and decrements coalesce worker-locally, and the
	// scheduler flushes it at idle boundaries via FlushCounters. A nil
	// Home keeps every counter on its unbuffered path.
	Home *counter.Home

	free []*Vertex // recycled vertices, owner-only (see pool.go)
	fins []*Vertex // recycled vertices that carry a counter, owner-only

	// created counts the vertices countFor created under this context
	// (see Dag.CountOn). Only the owner writes it, with an atomic load
	// and store: no RMW, and no line another worker writes, but the
	// store is still a full fence on amd64 (XCHG). It sits beside free,
	// which the owner already dirties on every vertex.
	created  atomic.Int64
	countFor *Dag

	flushReady func(tag any) // cached FlushCounters callback (one alloc per worker)
	flushedRdy int           // vertices readied by the current FlushAll, owner-only
}

// FlushCounters drains every pending counter delta this context's Home
// holds, scheduling any finish vertices whose counters reached zero,
// and returns how many vertices that readied. Schedulers must call it
// before backing off when out of local work: a buffered decrement's
// zero report surfaces only at a flush of the worker's own Home, so
// parking with pending deltas would strand the readied finish vertex.
func (ec *ExecContext) FlushCounters() int {
	if ec.Home == nil || !ec.Home.Active() {
		return 0
	}
	if ec.flushReady == nil {
		ec.flushReady = func(tag any) {
			ec.flushedRdy++
			tag.(*Vertex).markReady(ec)
		}
	}
	ec.flushedRdy = 0
	ec.Home.FlushAll(ec.flushReady)
	return ec.flushedRdy
}

// Recorder observes dag construction and execution. It is meant for
// validation and visualization (cmd/dagcheck); production runs leave
// it nil and pay nothing.
type Recorder interface {
	OnVertex(v *Vertex)
	OnEdge(from, to *Vertex)
	OnExecute(v *Vertex)
}

// Dag is a series-parallel dag under construction/execution.
type Dag struct {
	alg      counter.Algorithm
	schedule func(*Vertex)
	rec      Recorder
	ids      atomic.Uint64
	vertices atomic.Int64   // vertices created outside the contexts in ctxs
	ctxs     []*ExecContext // contexts counting this dag's vertices (CountOn)
}

// Option configures a Dag.
type Option func(*Dag)

// WithScheduler sets the callback invoked when a vertex becomes ready
// (its dependency counter reaches zero, or TrySchedule is called on a
// vertex created ready). The callback may be invoked from any
// goroutine executing Signal.
func WithScheduler(f func(*Vertex)) Option {
	return func(d *Dag) { d.schedule = f }
}

// WithRecorder attaches a construction/execution observer.
func WithRecorder(r Recorder) Option {
	return func(d *Dag) { d.rec = r }
}

// New creates an empty dag whose finish vertices use the given
// dependency-counter algorithm (the paper's evaluation swaps this
// between the in-counter, fetch-and-add, and fixed-depth SNZI).
func New(alg counter.Algorithm, opts ...Option) *Dag {
	d := &Dag{alg: alg, schedule: func(*Vertex) {}}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Algorithm returns the dependency-counter algorithm in use.
func (d *Dag) Algorithm() counter.Algorithm { return d.alg }

// VertexCount returns the number of vertices created so far: the
// dag's own word plus the word of every context wired with CountOn.
// Each word only grows and is read once, in turn, so the sum is exact
// once the runs that created the vertices have returned and never
// decreases while runs are in flight; it is not a point-in-time
// snapshot across workers.
func (d *Dag) VertexCount() int64 {
	n := d.vertices.Load()
	for _, ec := range d.ctxs {
		n += ec.created.Load()
	}
	return n
}

// CountOn moves the count of this dag's vertices created under each
// given context off the dag's shared word and onto a word of the
// context's own, which VertexCount adds back. A scheduler wires its
// worker contexts this way before any of them runs (see
// sched.Scheduler.CountVertices). A context counts for one dag only;
// vertices created under any other context (Make on a submitting
// goroutine, inline contexts) stay on the dag's word.
func (d *Dag) CountOn(ctxs ...*ExecContext) {
	for _, ec := range ctxs {
		if ec.countFor != nil {
			panic("spdag: CountOn: context already counts vertices for a dag")
		}
		ec.countFor = d
	}
	d.ctxs = append(d.ctxs, ctxs...)
}

// Vertex is a node of the sp-dag: one fine-grained thread of control.
type Vertex struct {
	dag     *Dag
	ctr     counter.Counter // this vertex's own dependency counter (query handle)
	st      counter.State   // capability into fin's counter (inc + dec handles)
	fin     *Vertex         // finish vertex: closest descendant all paths pass through
	body    Body
	payload any // opaque frontend value (see SetPayload)

	dead      atomic.Bool  // the vertex spawned, chained, or signalled
	scheduled atomic.Bool  // the vertex has been handed to the scheduler
	comp      *Computation // cancellation state shared across the computation
	ctx       *ExecContext
	pinned    bool // root/final of a Make: never recycled (see pool.go)

	// injNext links the vertex into the scheduler's external injection
	// queue (an intrusive MPSC list, see internal/sched); it is owned
	// by the queue between Submit and the pop that removes the vertex.
	injNext atomic.Pointer[Vertex]

	id uint64 // assigned only when a Recorder is attached
}

// InjNext reads the intrusive injection-queue link. It is owned by the
// scheduler's injector; no other party may touch it.
func (v *Vertex) InjNext() *Vertex { return v.injNext.Load() }

// SetInjNext writes the intrusive injection-queue link (see InjNext).
func (v *Vertex) SetInjNext(n *Vertex) { v.injNext.Store(n) }

// NewVertex creates a vertex with the given finish vertex, capability
// into the finish vertex's counter, and initial dependency count n
// (new_vertex in Figure 3). Most callers want Make, Chain, or Spawn
// instead; NewVertex is exported for runtimes that build dags from
// other frontends.
//
// A vertex created with n = 0 is born ready and — because handles into
// a counter are only handed out by the finish-vertex constructors —
// can never acquire dependencies later, so no counter is allocated for
// it. This matches the paper's cost model: the evaluation's fixed-depth
// SNZI baseline "allocates for each finish block a SNZI tree" (§5),
// not for every vertex.
func (d *Dag) NewVertex(fin *Vertex, st counter.State, n int) *Vertex {
	return d.newVertex(nil, fin, st, n)
}

// newVertex is NewVertex drawing storage from the given execution
// context's freelist (nil falls back to the shared pool); it is the
// allocation-free path Spawn and Chain use.
func (d *Dag) newVertex(ctx *ExecContext, fin *Vertex, st counter.State, n int) *Vertex {
	v, spent := grab(ctx, n > 0)
	v.dag, v.st, v.fin = d, st, fin
	if fin != nil {
		v.comp = fin.comp
	}
	if n > 0 {
		// The counter a recycled finish vertex carries backs this one
		// when it never promoted (see pool.go); otherwise d.alg.New.
		v.ctr = counter.Renew(spent, d.alg, n)
	}
	if ctx != nil && ctx.countFor == d {
		ctx.created.Store(ctx.created.Load() + 1) // owner-only word, see CountOn
	} else {
		d.vertices.Add(1)
	}
	if d.rec != nil {
		v.id = d.ids.Add(1)
		d.rec.OnVertex(v)
	}
	return v
}

// Make creates a fresh computation: a root vertex and its final
// (terminal) vertex (make in Figure 3). The root is ready immediately;
// the final vertex becomes ready when the root and everything it
// nests have signalled.
// Both vertices are pinned: the Run machinery keeps using them from
// the submitting goroutine (Abort on cancellation, Counter and Err
// after completion) concurrently with the tail of their execution, so
// they are never recycled into the vertex pools. The Computation
// record is likewise allocated fresh — typed-result frontends (package
// repro's futures) hold it past the run.
func (d *Dag) Make() (root, final *Vertex) {
	final = d.newVertex(nil, nil, nil, 0)
	final.ctr = d.alg.New(1)
	final.comp = &Computation{}
	final.pinned = true
	root = d.newVertex(nil, final, final.ctr.RootState(), 0)
	root.pinned = true
	return root, final
}

// Dag returns the dag the vertex belongs to.
func (v *Vertex) Dag() *Dag { return v.dag }

// Counter returns the vertex's own dependency counter, or nil for a
// vertex created ready (see NewVertex).
func (v *Vertex) Counter() counter.Counter { return v.ctr }

// Finish returns the vertex's finish vertex (nil for a final vertex).
func (v *Vertex) Finish() *Vertex { return v.fin }

// ID returns the vertex id (0 unless a Recorder is attached).
func (v *Vertex) ID() uint64 { return v.id }

// Dead reports whether the vertex has performed its terminal
// structural operation (Spawn, Chain, or Signal).
func (v *Vertex) Dead() bool { return v.dead.Load() }

// SetBody installs the code the vertex runs when executed. It must be
// called before the vertex is scheduled.
func (v *Vertex) SetBody(b Body) { v.body = b }

// SetPayload attaches an opaque value the body can retrieve with
// Payload. Frontends use it to hand their task function to a single
// static Body instead of allocating one closure per vertex: storing a
// function value in an interface is allocation-free (function values
// are pointer-shaped), where wrapping it in a fresh closure is not.
// Like SetBody, it must be called before the vertex is scheduled.
func (v *Vertex) SetPayload(p any) { v.payload = p }

// Payload returns the value attached with SetPayload, or nil.
func (v *Vertex) Payload() any { return v.payload }

// Ready reports whether the vertex's dependency counter is zero. It
// is a probe for tests and debugging; the runtime uses Signal's
// zero-report for scheduling.
func (v *Vertex) Ready() bool { return v.ctr == nil || v.ctr.IsZero() }

// Chain nests a serial computation in the current one (chain in
// Figure 3): it creates v (ready, with a fresh counter) and w (waiting
// on v), where w inherits the caller's obligations toward the caller's
// finish vertex. The caller dies. The caller must schedule v (e.g.
// via TrySchedule) after installing its body; w is scheduled
// automatically when v's subtree signals.
func (u *Vertex) Chain() (v, w *Vertex) {
	u.die("Chain")
	d := u.dag
	w = d.newVertex(u.ctx, u.fin, u.st, 1)
	v = d.newVertex(u.ctx, w, w.ctr.RootState(), 0)
	v.ctx, w.ctx = u.ctx, u.ctx
	if d.rec != nil {
		d.rec.OnEdge(u, v)
	}
	return v, w
}

// Spawn nests a parallel computation in the current one (spawn in
// Figure 3): it increments the finish vertex's dependency counter once
// and creates two parallel vertices that split the caller's
// obligations. The caller dies; one of the returned vertices is
// conventionally the caller's continuation. Both are ready and must be
// scheduled by the caller.
func (u *Vertex) Spawn() (v, w *Vertex) {
	u.die("Spawn")
	d := u.dag
	var l, r counter.State
	if u.ctx != nil && u.ctx.Home != nil {
		if hs, ok := u.st.(counter.HomedState); ok {
			l, r = hs.IncrementHomed(u.rng(), u.ctx.Home, u.fin)
		} else {
			l, r = u.st.Increment(u.rng())
		}
	} else {
		l, r = u.st.Increment(u.rng())
	}
	u.releaseState() // Increment was u's final use of its State
	v = d.newVertex(u.ctx, u.fin, l, 0)
	w = d.newVertex(u.ctx, u.fin, r, 0)
	v.ctx, w.ctx = u.ctx, u.ctx
	if d.rec != nil {
		d.rec.OnEdge(u, v)
		d.rec.OnEdge(u, w)
	}
	return v, w
}

// releaseState returns the vertex's consumed counter State to its
// implementation's pool, if the implementation supports it. Callers
// must only invoke it after the State's terminal operation (its
// Increment or Decrement); Chain hands the State to the successor
// instead and must not release. The Releaser check is per State
// object: two-phase counters hand out shared (non-releasable) states
// in one phase and pooled (releasable) ones in the other, so the
// assertion must not be cached per algorithm.
func (u *Vertex) releaseState() {
	if r, ok := u.st.(counter.Releaser); ok {
		r.Release()
		u.st = nil
	}
}

// Signal records the completion of the vertex (signal in Figure 3),
// decrementing its finish vertex's dependency counter. If that
// decrement brings the counter to zero, the finish vertex is handed to
// the dag's schedule callback — exactly once, by construction.
func (u *Vertex) Signal() {
	u.die("Signal")
	if u.fin == nil {
		return // terminal vertex: the computation is over
	}
	if u.dag.rec != nil {
		u.dag.rec.OnEdge(u, u.fin)
	}
	var zero bool
	if u.ctx != nil && u.ctx.Home != nil {
		if hs, ok := u.st.(counter.HomedState); ok {
			// The tag identifies the finish vertex a later flush's zero
			// report belongs to; every state of one counter shares it.
			zero = hs.DecrementHomed(u.ctx.Home, u.fin)
		} else {
			zero = u.st.Decrement()
		}
	} else {
		zero = u.st.Decrement()
	}
	u.releaseState() // Decrement was u's final use of its State
	if zero {
		u.fin.markReady(u.ctx)
	}
}

// TrySchedule hands the vertex to the scheduler callback if it is
// ready and has not been scheduled before; it returns whether this
// call scheduled it. It is how creators schedule vertices that are
// born ready (the fib example's Scheduler.add); vertices born waiting
// are scheduled by the zeroing Signal instead, and the internal
// once-flag resolves the race between the two paths.
func (v *Vertex) TrySchedule() bool {
	if !v.Ready() {
		return false
	}
	if !v.scheduled.CompareAndSwap(false, true) {
		return false
	}
	v.dispatch(v.ctx)
	return true
}

func (v *Vertex) markReady(ctx *ExecContext) {
	if !v.scheduled.CompareAndSwap(false, true) {
		panic("spdag: vertex scheduled twice (counter discipline violated)")
	}
	v.dispatch(ctx)
}

// dispatch hands a ready vertex to the worker-local push when one is
// in scope, falling back to the dag's global schedule callback.
func (v *Vertex) dispatch(ctx *ExecContext) {
	if ctx != nil && ctx.Push != nil {
		ctx.Push(v)
		return
	}
	v.dag.schedule(v)
}

// Execute runs the vertex's body in the given worker-local execution
// context (nil is allowed for inline/manual execution and gets a
// private context). If the body completes without performing a
// terminal structural operation, Execute signals on its behalf.
//
// A panic escaping the body is recovered here — the vertex-execution
// boundary — converted to a *PanicError, and recorded as the
// computation's error (see Abort); the vertex then signals as if the
// body had returned, so the dag still quiesces and Run-style callers
// observe the failure as an ordinary error.
// Execute finishes by recycling the vertex into the context's
// freelist: at this point the vertex is dead and the executing worker
// holds the only reference (frontends retain the Computation record,
// never vertices, past execution), so its storage can back the next
// vertex this worker creates. Pinned vertices (Make's root/final) are
// exempt — the submitting goroutine still uses them.
func (v *Vertex) Execute(ctx *ExecContext) {
	if ctx == nil {
		ctx = newInlineContext()
	}
	v.ctx = ctx
	if v.dag.rec != nil {
		v.dag.rec.OnExecute(v)
	}
	if v.body != nil {
		v.invokeBody()
	}
	if !v.dead.Load() {
		v.Signal()
	}
	v.recycle()
}

// AdoptExecution records that this vertex's execution is subsumed by
// the currently running task: continuation-passing frontends (package
// nested) run a spawn's continuation inline in the caller rather than
// scheduling it, so the vertex never passes through Execute. This only
// notifies the recorder; it has no runtime effect.
func (v *Vertex) AdoptExecution() {
	if v.dag.rec != nil {
		v.dag.rec.OnExecute(v)
	}
}

func (v *Vertex) rng() *rng.Xoshiro256ss {
	if v.ctx == nil {
		// One allocation covers context and generator, and descendants
		// inherit it (see inlineContext).
		v.ctx = newInlineContext()
	}
	if v.ctx.G == nil {
		v.ctx.G = rng.NewXoshiro(rng.AutoSeed())
	}
	return v.ctx.G
}

func (v *Vertex) die(op string) {
	if v.dead.Swap(true) {
		panic("spdag: " + op + " on a dead vertex (" + op + "/Spawn/Chain/Signal must be a vertex's last operation)")
	}
}
