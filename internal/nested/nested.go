// Package nested provides the structured nested-parallelism frontend
// — async/finish and fork/join — on top of the sp-dag runtime and the
// work-stealing scheduler. It is the programming interface the paper's
// benchmarks are written in (PPoPP'17 Figures 6 and 7), and the
// engine behind the public API a downstream user of this library
// programs against (package repro at the module root).
//
// The mapping to sp-dag operations (§3.1) is:
//
//   - Async(f) — parallel composition: the current vertex Spawns; the
//     new right vertex runs f, the left vertex is the caller's
//     continuation (the calling code keeps executing as it). The
//     async'd task joins at the innermost enclosing finish.
//   - FinishThen(f, then) — serial composition: the current vertex
//     Chains; f runs inside a fresh finish block (with its own
//     dependency counter), and then runs after every async spawned
//     inside f (transitively) has completed.
//   - Finish(f) — FinishThen in tail position: the task ends when the
//     finish block completes.
//
// Every Run executes a top-level implicit finish: Run(f) returns when
// f and all asyncs it created have completed.
//
// # Failure semantics
//
// Run returns an error, errgroup-style. A panic in any task of the
// computation is recovered at the task boundary, converted to a
// *spdag.PanicError, and cancels the computation: the bodies of every
// not-yet-executed vertex of that computation become no-ops, but each
// vertex still discharges its dependency counters, so the dag quiesces
// and Run returns the first error once everything has drained. The
// same path serves RunContext's context cancellation and an explicit
// Ctx.Fail. Cancellation is cooperative — a running task is never
// interrupted; long loops should poll Ctx.Err.
//
// A Runtime is a long-lived service: any number of goroutines may call
// Run concurrently, each getting its own root/final vertex pair (its
// own top-level finish counter) over the shared dag and scheduler. A
// failed or cancelled Run leaves the Runtime fully reusable.
//
// A Ctx is a capability for the current task and is consumed by tail
// operations (Finish, ForkJoin); structured misuse within a live task
// — reusing a Ctx after a tail operation consumed it — panics
// deterministically rather than corrupting counters. Retaining a Ctx
// past its task's end is undefined: contexts and vertices are pooled
// storage (see taskBody) and may already belong to another task. A
// released Ctx panics on use until the pool actually reuses it; to
// make that panic unconditional — pooling off, released contexts
// poisoned forever — build with `-tags nestedchecks` when hunting a
// suspected escaped Ctx.
package nested

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/counter"
	"repro/internal/sched"
	"repro/internal/spdag"
	"repro/internal/topology"
)

// Task is user code executing as one fine-grained thread.
type Task func(c *Ctx)

// ErrClosed is returned by Run variants on a Runtime whose Close has
// begun.
var ErrClosed = errors.New("nested: runtime is closed")

// Runtime owns a scheduler and a dag configuration; it is a long-lived
// service executing many computations, sequentially or concurrently.
type Runtime struct {
	sched *sched.Scheduler
	dag   *spdag.Dag
	seq   runSeq

	mu        sync.Mutex
	closed    bool
	runs      sync.WaitGroup // in-flight Run calls
	closeOnce sync.Once
}

// Config tunes a Runtime.
type Config struct {
	// Workers is the number of scheduler workers (the evaluation's
	// `proc` axis); ≤ 0 means GOMAXPROCS. With MaxWorkers set it is the
	// floor of an elastic pool.
	Workers int
	// MaxWorkers, when > Workers, makes the worker pool elastic: the
	// scheduler grows from Workers up to MaxWorkers under sustained
	// injector backlog and retires the extra workers after long parks
	// (see internal/sched's doc.go). 0 means a fixed pool of exactly
	// Workers; New panics when 0 < MaxWorkers < Workers — with
	// Workers ≤ 0 resolving to GOMAXPROCS, a too-small ceiling is
	// always a configuration bug better reported than guessed around.
	MaxWorkers int
	// RetireAfter is how long an elastic worker above the floor stays
	// parked before it retires; ≤ 0 means the scheduler default
	// (100ms). Ignored by fixed pools.
	RetireAfter time.Duration
	// Algorithm is the dependency-counter algorithm; nil means the
	// contention-adaptive counter: a fetch-and-add cell per finish
	// block that promotes itself to the paper's in-counter (grow
	// threshold 25·Workers, §5) when it observes sustained contention.
	// Set counter.Dynamic explicitly to force the in-counter from
	// birth, as the pre-adaptive default did.
	Algorithm counter.Algorithm
	// CounterSpec selects the algorithm by its artifact-style spec
	// string ("adaptive[:K[:batch]]", "dyn", "fetchadd", "snzi-D")
	// instead;
	// it is resolved by New, against the resolved worker count, so
	// the paper-default grow threshold (25·Workers) is computed from
	// the actual worker count regardless of field or option order.
	// Algorithm, when non-nil, takes precedence. New panics on a
	// malformed spec.
	CounterSpec string
	// Seed fixes scheduler randomness for reproducible tests.
	Seed uint64
	// Recorder optionally observes dag construction (validation runs).
	Recorder spdag.Recorder
	// Topology maps worker slots to locality nodes: the steal loop
	// prefers same-node victims, vertex storage pools per node, and
	// elastic spawns pick the least-loaded node. The zero value
	// auto-detects the host (flat on non-NUMA machines); use
	// topology.Synthetic to test multi-node behavior anywhere.
	Topology topology.Topology
	// Watchdog, when > 0, arms the scheduler's stall watchdog with this
	// no-progress threshold: if a computation is in flight but no vertex
	// has executed for the window — and no worker is inside a task body
	// — the scheduler counts a stall, reports per-worker state to any
	// sched.Scheduler.OnStall hook, and re-wakes parked workers (see
	// sched.WithWatchdog). 0 means no watchdog goroutine at all.
	Watchdog time.Duration
}

// DefaultThreshold returns the paper's growth-probability denominator
// for p workers: 25·p, clamped to at least 1 (§5: "p := 1/(25c)").
func DefaultThreshold(workers int) uint64 {
	if workers < 1 {
		workers = 1
	}
	return uint64(25 * workers)
}

// New creates and starts a Runtime.
func New(cfg Config) *Runtime {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxWorkers := cfg.MaxWorkers
	if maxWorkers <= 0 {
		maxWorkers = workers
	}
	if maxWorkers < workers {
		panic(fmt.Sprintf("nested: Config.MaxWorkers (%d) below Workers (%d)", maxWorkers, workers))
	}
	alg := cfg.Algorithm
	// The paper-default grow threshold is 25·p for p processors (§5);
	// for an elastic pool the contention-relevant p is the ceiling —
	// that is how many workers can actually collide on a counter.
	if alg == nil && cfg.CounterSpec != "" {
		a, err := counter.Parse(cfg.CounterSpec, DefaultThreshold(maxWorkers))
		if err != nil {
			panic("nested: Config.CounterSpec: " + err.Error())
		}
		alg = a
	}
	if alg == nil {
		alg = counter.NewAdaptive(0, DefaultThreshold(maxWorkers))
	}
	sopts := []sched.Option{sched.WithMaxWorkers(maxWorkers)}
	if !cfg.Topology.IsZero() {
		sopts = append(sopts, sched.WithTopology(cfg.Topology))
	}
	if cfg.Seed != 0 {
		sopts = append(sopts, sched.WithSeed(cfg.Seed))
	}
	if cfg.RetireAfter > 0 {
		sopts = append(sopts, sched.WithRetireAfter(cfg.RetireAfter))
	}
	if cfg.Watchdog > 0 {
		sopts = append(sopts, sched.WithWatchdog(cfg.Watchdog))
	}
	s := sched.New(workers, sopts...)
	dopts := []spdag.Option{spdag.WithScheduler(s.Submit)}
	if cfg.Recorder != nil {
		dopts = append(dopts, spdag.WithRecorder(cfg.Recorder))
	}
	r := &Runtime{sched: s, dag: spdag.New(alg, dopts...)}
	s.CountVertices(r.dag)
	s.Start()
	return r
}

// Close shuts the Runtime down. It is idempotent and safe to call
// concurrently with in-flight Runs: it marks the Runtime closed
// (subsequent Runs fail fast with ErrClosed), waits for every
// in-flight Run to drain, then stops the scheduler workers. Every
// Close call — including concurrent and repeated ones — returns only
// after the workers have exited.
func (r *Runtime) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.runs.Wait()
	r.closeOnce.Do(r.sched.Shutdown)
}

// Scheduler exposes the underlying scheduler (for stats).
func (r *Runtime) Scheduler() *sched.Scheduler { return r.sched }

// Dag exposes the underlying dag (for stats and validation).
func (r *Runtime) Dag() *spdag.Dag { return r.dag }

// Workers returns the live worker count: constant for a fixed pool,
// load-tracking for an elastic one (an idle elastic Runtime quiesces
// to Config.Workers).
func (r *Runtime) Workers() int { return r.sched.NumWorkers() }

// Run executes f under a top-level finish and blocks the calling
// goroutine (which is not a worker) until f and everything it spawned
// have completed or the computation failed. It returns the first error
// of the computation: a recovered task panic (as *spdag.PanicError) or
// an explicit Ctx.Fail. Multiple goroutines may Run concurrently on
// one Runtime; each computation has its own root finish counter, so
// they do not interfere.
func (r *Runtime) Run(f Task) error {
	_, err := r.run(context.Background(), f)
	return err
}

// RunContext is Run under a context: when ctx is cancelled the
// computation is aborted the same way a task failure aborts it — the
// remaining vertices become no-ops but still discharge their counters
// — and RunContext returns once the dag has quiesced, with ctx's
// error. An already-cancelled ctx runs nothing.
func (r *Runtime) RunContext(ctx context.Context, f Task) error {
	_, err := r.run(ctx, f)
	return err
}

// RunMeasured is Run, additionally returning the dependency counter of
// the computation's final vertex — the top-level finish block. Its
// NodeCount is the artifact's nb_incounter_nodes statistic.
func (r *Runtime) RunMeasured(f Task) (counter.Counter, error) {
	return r.run(context.Background(), f)
}

// runSlot is the pooled per-Run completion machinery: the done channel
// and the final-vertex body that fires it. The channel is a one-token
// binary semaphore rather than a closed channel so it can be reused:
// the final body sends exactly one token per run, and run consumes
// exactly one on every path, leaving the slot empty for the next Run.
type runSlot struct {
	done chan struct{}
	body spdag.Body
}

var runSlotPool = sync.Pool{New: func() any {
	s := &runSlot{done: make(chan struct{}, 1)}
	s.body = func(*spdag.Vertex) { s.done <- struct{}{} }
	return s
}}

func (r *Runtime) run(ctx context.Context, f Task) (counter.Counter, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.runs.Add(1)
	r.mu.Unlock()
	defer r.runs.Done()

	// Watchdog accounting: while this computation is in flight the
	// scheduler owes progress (a quiet scheduler with zero live runs is
	// idle, not stalled).
	r.sched.RunStarted()
	defer r.sched.RunFinished()

	slot := runSlotPool.Get().(*runSlot)
	root, final := r.dag.Make()
	final.SetBody(slot.body)
	setTask(root, f)
	if err := ctx.Err(); err != nil {
		root.Abort(err)
	}
	if !root.TrySchedule() {
		panic("nested: fresh root failed to schedule")
	}
	if ctx.Done() == nil {
		<-slot.done
	} else {
		select {
		case <-slot.done:
		case <-ctx.Done():
			// Both channels may be ready and select picks at random:
			// never abort a computation that has already completed, or
			// a successful Run would flakily report ctx's error.
			select {
			case <-slot.done:
			default:
				root.Abort(ctx.Err())
				<-slot.done
			}
		}
	}
	ctr, err := final.Counter(), final.Err()
	runSlotPool.Put(slot)
	return ctr, err
}

// Ctx is the capability of the currently executing task. It is not
// safe for concurrent use and must not escape the task it was handed
// to — not into async'd siblings (each Task receives its own) and not
// past the task's end: Ctx objects are pooled and reused by later
// tasks.
type Ctx struct {
	v    *spdag.Vertex
	self *spdag.Vertex // the vertex Execute runs; recycled by Execute, not by us
	done bool          // a tail operation consumed the task
}

// ctxPool recycles Ctx objects: a Ctx escapes into the user's task
// function (whose closures routinely carry it into Asyncs), so without
// pooling every task execution heap-allocates one.
var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// taskBody is the single static vertex body of every task vertex: the
// Task function itself travels as the vertex payload (an
// allocation-free handoff, see spdag.SetPayload), so spawning a task
// allocates no per-task closure.
//
// taskBody is also the frontend's failure boundary. If the computation
// has been cancelled the user function is skipped entirely (the vertex
// becomes a pure counter discharge). If the user function panics, the
// panic is recovered here — where the task's *current* continuation
// vertex is known, even after Asyncs have replaced it — the
// computation is aborted with a *spdag.PanicError, and the
// continuation signals so the dag still quiesces.
//
// The task's final continuation vertex signals when the user function
// returns, unless a tail operation already consumed the task; if that
// final continuation was adopted inline (it is not self, so it never
// passes through Execute), this is additionally its recycle point.
// Continuations consumed mid-task are recycled at their consuming
// operation (TryAsync, FinishThen) instead.
func taskBody(self *spdag.Vertex) {
	f, _ := self.Payload().(Task)
	c := ctxPool.Get().(*Ctx)
	c.v, c.self, c.done = self, self, false
	if f != nil && self.Err() == nil {
		runTask(f, c)
	}
	if !c.done {
		if !c.v.Dead() {
			c.v.Signal()
		}
		if c.v != self && c.v.Dead() {
			c.v.Recycle()
		}
	}
	// Release: nil v poisons retained handles, and done is reset so
	// they panic with the retention diagnostic, not the tail-operation
	// one — past this point "the task ended with a tail op" is no
	// longer the relevant misuse.
	c.v, c.self, c.done = nil, nil, false
	if !poolCtx {
		return // never pooled: the poison is permanent
	}
	ctxPool.Put(c)
}

// setTask installs taskBody and its payload on a task vertex.
func setTask(v *spdag.Vertex, f Task) {
	v.SetBody(taskBody)
	v.SetPayload(f)
}

// runTask invokes f behind the task-boundary recover barrier. The
// abort is anchored on self rather than the continuation: Abort only
// needs any vertex of the computation (it routes through the stable
// Computation record), self is valid for the whole taskBody call
// (Execute recycles it only afterwards), while c.v may be nil after a
// tail operation consumed the task — and the vertex it used to point
// at may already be recycled into another computation.
func runTask(f Task, c *Ctx) {
	defer func() {
		if p := recover(); p != nil {
			c.self.Abort(spdag.AsPanicError(p))
		}
	}()
	chaosTask() // fault seam: no-op unless built with -tags chaostest
	f(c)
}

// Computation returns the stable record of the task's computation —
// unlike the Ctx and its vertices, the record is never recycled, so it
// is the correct handle to retain past the task's end (futures do).
// Like every other entry point it panics if the task already ended.
func (c *Ctx) Computation() *spdag.Computation {
	return c.live("Computation").Computation()
}

// Err returns the error the enclosing computation was cancelled with,
// or nil while it is live. Long-running leaf loops should poll it to
// stop early after a sibling failure or a context cancellation;
// structural operations check it automatically.
func (c *Ctx) Err() error { return c.live("Err").Err() }

// Fail cancels the enclosing computation with err (the first failure
// wins), errgroup-style: the computation's Run returns err once the
// dag quiesces. A nil err is ignored. Fail returns immediately; the
// current task keeps running and should return promptly.
func (c *Ctx) Fail(err error) {
	v := c.live("Fail")
	if err != nil {
		v.Abort(err)
	}
}

// live returns the task's current vertex, panicking if the task has
// ended: both a consuming tail operation and taskBody's release nil v,
// and v is only reset when the pool hands the object to a new task, so
// a stale handle fails here deterministically until reuse — and
// forever under `-tags nestedchecks`, where released contexts are
// never pooled. The done flag distinguishes the two misuses for the
// diagnostic.
func (c *Ctx) live(op string) *spdag.Vertex {
	v := c.v
	if v == nil {
		if c.done {
			panic("nested: " + op + " after the task ended (Finish/ForkJoin are tail operations)")
		}
		panic("nested: " + op + " on a Ctx retained past its task's end")
	}
	return v
}

// Async starts f as a new task joining at the innermost enclosing
// finish block, and continues the caller as the spawn's continuation.
// On a cancelled computation Async is a no-op.
func (c *Ctx) Async(f Task) { c.TryAsync(f) }

// TryAsync is Async reporting whether the task was actually spawned:
// it returns false — spawning nothing and touching no counters — when
// the computation has already been cancelled. Callers that hand out
// completion promises (package repro's futures) use the report to
// resolve them.
func (c *Ctx) TryAsync(f Task) bool {
	prev := c.live("Async")
	if prev.Err() != nil {
		return false
	}
	v, w := prev.Spawn()
	setTask(w, f)
	v.AdoptExecution() // the caller keeps running as v
	c.v = v
	w.TrySchedule()
	// prev died in the Spawn; unless it is the executing vertex itself
	// (which Execute recycles), nothing references it any more.
	if prev != c.self {
		prev.Recycle()
	}
	return true
}

// FinishThen runs body inside a fresh finish block; then runs after
// body and every async it (transitively) created inside the block have
// completed. then continues the caller's task: it may Async into the
// caller's own enclosing finish, and the caller's task ends when then
// returns (the Ctx passed to then is a fresh one; c is consumed). On a
// cancelled computation neither body nor then runs; the task just
// ends.
func (c *Ctx) FinishThen(body, then Task) {
	prev := c.live("FinishThen")
	c.done = true
	// The task is consumed: nil v so any later use of c — including
	// Err/Fail, which skip the done check — panics in live instead of
	// touching prev, which is recycled below and may already carry a
	// vertex of an unrelated computation by the time c is misused.
	c.v = nil
	if prev.Err() != nil {
		prev.Signal()
		if prev != c.self {
			prev.Recycle()
		}
		return
	}
	v, w := prev.Chain()
	setTask(v, body)
	setTask(w, then)
	v.TrySchedule()
	// prev died in the Chain (its counter State moved to w); recycle it
	// unless Execute owns it.
	if prev != c.self {
		prev.Recycle()
	}
}

// Finish is FinishThen in tail position: the caller's task ends when
// the finish block completes.
func (c *Ctx) Finish(body Task) { c.FinishThen(body, nil) }

// ForkJoinThen runs f and g in parallel and calls then when both have
// completed (fork-join, the two-way special case of async-finish).
func (c *Ctx) ForkJoinThen(f, g, then Task) {
	c.FinishThen(func(c *Ctx) {
		c.Async(f)
		g(c)
	}, then)
}

// ForkJoin is ForkJoinThen in tail position.
func (c *Ctx) ForkJoin(f, g Task) { c.ForkJoinThen(f, g, nil) }

// ParallelForThen runs fn(i) for every i in [lo, hi) with parallel
// recursive splitting down to the given grain (iterations per task,
// minimum 1), then runs then once all iterations complete. After a
// cancellation, remaining splits are skipped (already-started leaves
// finish their at-most-grain iterations).
func (c *Ctx) ParallelForThen(lo, hi, grain int, fn func(i int), then Task) {
	if grain < 1 {
		grain = 1
	}
	c.FinishThen(func(c *Ctx) {
		parforRec(c, lo, hi, grain, fn)
	}, then)
}

// ParallelFor is ParallelForThen in tail position.
func (c *Ctx) ParallelFor(lo, hi, grain int, fn func(i int)) {
	c.ParallelForThen(lo, hi, grain, fn, nil)
}

func parforRec(c *Ctx, lo, hi, grain int, fn func(i int)) {
	for hi-lo > grain {
		if c.v.Err() != nil {
			return
		}
		mid := lo + (hi-lo)/2
		lo2, hi2 := lo, mid
		c.Async(func(c *Ctx) { parforRec(c, lo2, hi2, grain, fn) })
		lo = mid
	}
	if c.v.Err() != nil {
		return
	}
	for i := lo; i < hi; i++ {
		fn(i)
	}
}
