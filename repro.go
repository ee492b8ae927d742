// Package repro is a Go reproduction of "Contention in Structured
// Concurrency: Provably Efficient Dynamic Non-Zero Indicators for
// Nested Parallelism" (Acar, Ben-David, Rainey; PPoPP 2017), grown
// into a production-grade nested-parallelism runtime.
//
// It provides, from the bottom up:
//
//   - a SNZI scalable non-zero indicator with the paper's dynamic grow
//     extension (internal/snzi);
//   - the in-counter, a provably low-contention dependency counter for
//     series-parallel dags (internal/core);
//   - an sp-dag runtime with a Chase-Lev work-stealing scheduler
//     (internal/spdag, internal/sched, internal/deque);
//   - an async/finish + fork/join nested-parallelism frontend
//     (internal/nested);
//   - the paper's baseline counters and the full benchmark harness
//     regenerating every figure of its evaluation (internal/counter,
//     internal/harness), plus a stall-model simulator that measures
//     contention in the model of the paper's theorems
//     (internal/memmodel, internal/stallsim).
//
// This file is the supported public surface. A Runtime is a long-lived
// service: create one per process (or use the lazily-started package
// default via Do), submit any number of computations from any number
// of goroutines, and Close it on the way out. The quickest start:
//
//	err := repro.Do(func(c *repro.Ctx) {
//	    c.ParallelFor(0, len(xs), 1024, func(i int) { xs[i] *= 2 })
//	})
//
// or, with an explicit runtime and configuration:
//
//	rt := repro.NewRuntime(repro.WithWorkers(8), repro.WithCounter("dyn"))
//	defer rt.Close()
//	err := rt.Run(func(c *repro.Ctx) { ... })
//
// NewRuntime is the one constructor and its six With* options are the
// whole configuration surface; the dependency counter is named by the
// paper artifact's spec string ("fetchadd", "dyn", "snzi-D", or the
// default "adaptive").
//
// Failure semantics are errgroup-grade: a panic in any task is
// recovered, converted to a *PanicError, and cancels the rest of the
// computation (remaining tasks become no-ops, long loops can poll
// Ctx.Err); Run returns the first error once the computation has fully
// quiesced, and the Runtime stays reusable. RunContext aborts the same
// way when its context is cancelled. Typed results flow through
// Go/Future, ParallelReduce, and RunValue (see future.go).
//
// See examples/ for complete programs and DESIGN.md for the map from
// the paper's systems and figures to this repository.
package repro

import (
	"context"
	"sync"
	"time"

	"repro/internal/counter"
	"repro/internal/nested"
	"repro/internal/sched"
	"repro/internal/spdag"
	"repro/internal/topology"
)

// Ctx is the capability of a running task; see nested.Ctx. Its key
// methods are Async, Finish/FinishThen, ForkJoin, ParallelFor, and the
// failure surface Err/Fail.
type Ctx = nested.Ctx

// Task is user code executing as one fine-grained thread.
type Task = nested.Task

// ErrClosed is returned by Run variants on a Runtime whose Close has
// begun.
var ErrClosed = nested.ErrClosed

// PanicError is the error a recovered task panic is converted to: it
// carries the panic value and the stack captured at the point of
// recovery, and unwraps to the panic value when that value is itself
// an error.
type PanicError = spdag.PanicError

// Runtime executes nested-parallel computations on a work-stealing
// scheduler. It is a long-lived, multi-tenant service: any number of
// goroutines may call Run/RunContext concurrently; each call gets its
// own top-level finish counter over the shared dag and scheduler, so
// concurrent computations do not cross-signal. A failed or cancelled
// computation leaves the Runtime fully reusable.
type Runtime struct {
	n *nested.Runtime
}

// Option configures a Runtime at construction (see NewRuntime). The
// With* functions below are the complete set.
type Option func(*nested.Config)

// WithWorkers sets the number of scheduler workers (≤ 0 means
// GOMAXPROCS) — the evaluation's `proc` axis. With WithMaxWorkers it
// is the floor of the elastic pool.
func WithWorkers(n int) Option { return func(c *nested.Config) { c.Workers = n } }

// WithMaxWorkers makes the worker pool elastic: the scheduler keeps
// WithWorkers workers as the floor, spawns more — up to max — while
// the submission backlog stays non-empty across wake attempts, and
// retires workers that stay parked past the retirement threshold, so
// a Runtime sized for burst traffic holds only the workers its current
// load amortizes. max ≤ 0 (the default) keeps the pool fixed;
// NewRuntime panics when 0 < max < workers.
// Stats reports the pool's movement (Workers, SpawnedWorkers,
// RetiredWorkers).
func WithMaxWorkers(max int) Option { return func(c *nested.Config) { c.MaxWorkers = max } }

// WithCounter selects the dependency-counter algorithm by its
// artifact-style spec string: "adaptive" (the default), "adaptive:K"
// (promote after K observed collisions), "adaptive:K:batch" (after K
// collisions, batch the counter's traffic in per-worker delta slots
// flushed every `batch` units — the amortized frontend for fan-in
// storms), "dyn",
// "fetchadd", or "snzi-D". The spec is resolved at construction, after
// every option
// has applied, so the paper-default dynamic grow threshold
// (25·workers) always uses the configured worker count regardless of
// option order. WithCounter panics on a malformed spec — the spec is
// almost always a literal, and a Runtime must not start with a
// different algorithm than the one it was asked for; check a
// user-supplied spec with CheckCounterSpec first.
func WithCounter(spec string) Option {
	// Validate eagerly so the panic carries the caller's stack;
	// construction resolves the real algorithm against the final worker
	// count.
	if err := CheckCounterSpec(spec); err != nil {
		panic("repro: WithCounter: " + err.Error())
	}
	return func(c *nested.Config) { c.CounterSpec = spec }
}

// CheckCounterSpec reports whether spec is a counter spec WithCounter
// accepts, so a command line can reject a bad flag with an error
// instead of WithCounter's panic.
func CheckCounterSpec(spec string) error {
	// The grow threshold does not affect validity.
	_, err := counter.Parse(spec, 1)
	return err
}

// WithSeed fixes scheduler randomness for reproducible runs.
func WithSeed(seed uint64) Option { return func(c *nested.Config) { c.Seed = seed } }

// WithTopology sets the scheduler's locality map from worker slots to
// nodes (NUMA sockets): workers steal from same-node victims first and
// fall back to remote nodes only when the local node is dry, vertex
// storage pools per node, and an elastic pool spawns onto the
// least-loaded node. By default the host topology is auto-detected
// from Linux sysfs (flat — locality-blind and identical to the
// pre-topology scheduler — on hosts without NUMA). Locality is only a
// preference, never a correctness condition: a wrong topology costs
// throughput, not results. Stats reports the split
// (LocalSteals/RemoteSteals); SyntheticTopology exercises multi-node
// scheduling on any host.
func WithTopology(t Topology) Option { return func(c *nested.Config) { c.Topology = t } }

// RunInfo describes one completed Run (see RunContextInfo): the run's
// runtime-assigned id, wall-clock span, outcome, and approximate work
// counters (runtime-global deltas over the run's span — exact when runs
// execute one at a time, attribution blurred under concurrent runs).
// See nested.RunInfo.
type RunInfo = nested.RunInfo

// WithWatchdog arms the scheduler's stall watchdog: if a computation
// is in flight but no vertex has executed for d — and no worker is
// inside a task body, so a single long-running task never trips it —
// the runtime hands a per-worker state dump to any Scheduler.OnStall
// hook, then counts a stall (Stats.Stalls), and re-wakes every parked
// worker as a recovery nudge. The watchdog is the runtime's self-defense
// against wedged-scheduler shapes (a lost wake token with work queued,
// a preempted worker holding the only ready vertex); d ≤ 0 (the
// default) runs no watchdog goroutine at all.
func WithWatchdog(d time.Duration) Option { return func(c *nested.Config) { c.Watchdog = d } }

// NewRuntime creates and starts a Runtime configured by functional
// options: NewRuntime() for an all-defaults runtime, or e.g.
//
//	repro.NewRuntime(repro.WithWorkers(8), repro.WithSeed(42))
//
// Close the Runtime when done with it.
func NewRuntime(opts ...Option) *Runtime {
	var cfg nested.Config
	for _, o := range opts {
		o(&cfg)
	}
	return &Runtime{n: nested.New(cfg)}
}

// Run executes f under a top-level finish and blocks until f and
// everything it spawned have completed or the computation failed. It
// returns the first error of the computation — a recovered task panic
// (*PanicError) or an explicit Ctx.Fail — after the computation has
// fully quiesced, errgroup-style.
func (r *Runtime) Run(f Task) error { return r.n.Run(f) }

// RunContext is Run under a context: cancellation of ctx aborts the
// computation (cooperatively — remaining tasks become no-ops, running
// ones should poll Ctx.Err) and RunContext returns ctx's error once
// the dag has quiesced. An already-cancelled ctx runs nothing.
func (r *Runtime) RunContext(ctx context.Context, f Task) error {
	return r.n.RunContext(ctx, f)
}

// RunContextInfo is RunContext, additionally returning the run's
// RunInfo (id, timing, work counters). The error return equals
// info.Err; it is repeated so the call composes like the other Run
// variants.
func (r *Runtime) RunContextInfo(ctx context.Context, f Task) (RunInfo, error) {
	return r.n.RunContextInfo(ctx, f)
}

// Close shuts the Runtime down: it marks the Runtime closed (further
// Runs return ErrClosed), waits for in-flight Runs to drain, and stops
// the workers. Close is idempotent and safe to call concurrently with
// in-flight Runs; every call returns only after shutdown completes. It
// always returns nil; the error result exists to satisfy io.Closer.
func (r *Runtime) Close() error {
	r.n.Close()
	return nil
}

// Workers returns the live worker count: constant for a fixed pool,
// load-tracking for an elastic one (see WithMaxWorkers).
func (r *Runtime) Workers() int { return r.n.Workers() }

// Stats is a snapshot of runtime counters (exact when quiescent).
type Stats struct {
	Workers int // live scheduler workers (an idle elastic runtime quiesces to its floor)
	Parked  int // workers currently parked (idle runtime: Parked == Workers)
	// Vertices counts the dag vertices created so far: a sum of
	// per-worker counts plus the dag's own word (vertices created
	// outside a worker). It is exact once the counted runs have
	// returned and never decreases while they are in flight, but it
	// is not a point-in-time snapshot across workers.
	Vertices int64
	Steals   uint64 // successful steals (== LocalSteals + RemoteSteals)
	Executed uint64 // vertices executed
	// LocalSteals and RemoteSteals split Steals by victim locality
	// under the runtime's topology (WithTopology): a steal from a
	// same-node victim is local, one that crossed nodes remote. On a
	// flat topology every steal is local; a healthy multi-node run
	// keeps RemoteSteals a small fraction of the total — remote
	// stealing is the fallback phase of the victim order, not the
	// common case.
	LocalSteals  uint64
	RemoteSteals uint64
	// SpawnedWorkers and RetiredWorkers count the elastic pool's
	// movement since construction: workers spawned beyond the floor
	// under sustained backlog, and workers retired after long parks.
	// Both stay 0 on a fixed pool (no WithMaxWorkers).
	SpawnedWorkers uint64
	RetiredWorkers uint64
	// InjectorDepth is the number of externally submitted computation
	// roots accepted but not yet picked up by a worker — the backlog
	// the park protocol and the elastic spawn signal consult. A
	// sustained non-zero depth means Runs are being submitted faster
	// than the pool drains them; an admission layer (internal/gateway)
	// uses it as its backpressure sense.
	InjectorDepth int
	// PeggedFor is how long an elastic pool has been pegged: at its
	// ceiling with sustained injector backlog the spawn signal could
	// not absorb by growing. 0 when not pegged, and always 0 for a
	// fixed pool. A service front-end sheds load (429 + Retry-After)
	// when this stays above its admission window: the pool has proved
	// it cannot grow out of the offered load.
	PeggedFor time.Duration
	// Promotions counts finish counters that reacted to contention on
	// their fetch-and-add cell: by migrating to the in-counter, or
	// (counter spec "adaptive:K:batch") by switching to per-worker
	// batching. It is 0 for statically configured algorithms; under the
	// default adaptive algorithm, Promotions == 0 after a run means
	// every finish block settled on fetch-and-add, Promotions > 0 that
	// contention pushed some onto the in-counter.
	Promotions uint64
	// Demotions counts promoted counters that went back to operating
	// on the cell directly after their contention burst passed. Always
	// 0 unless the adaptive algorithm's batched frontend is enabled
	// (counter spec "adaptive:K:batch"), which is the only
	// configuration with a demotion path.
	Demotions uint64
	// CounterFlushes and CounterLocalIncs are the batched counter
	// frontend's coalescing ledger, the counter analogue of the result
	// sink's logical_writes/backend_calls split: units buffered in
	// per-worker delta slots versus shared RMWs actually issued
	// (slot-anchor acquisitions plus weighted flushes). Both are 0
	// unless the counter spec batches; their ratio is the frontend's
	// amortization factor.
	CounterFlushes   uint64
	CounterLocalIncs uint64
	// Stalls counts watchdog detections (WithWatchdog): windows in
	// which a computation was in flight but no vertex executed and no
	// worker was inside a task body, each counted after its OnStall
	// hook returned. Always 0 without a watchdog. A
	// non-zero count that stops growing means the runtime recovered
	// (often from the watchdog's own re-wake nudge); a growing count
	// means it is wedged and outside help — a deadline, a reap — is the
	// remaining defense.
	Stalls uint64
}

// Stats snapshots the runtime's scheduler and dag counters.
func (r *Runtime) Stats() Stats {
	sc := r.n.Scheduler()
	st := sc.Stats()
	s := Stats{
		Workers:          r.n.Workers(),
		Parked:           sc.ParkedWorkers(),
		Vertices:         r.n.Dag().VertexCount(),
		Steals:           st.Steals,
		LocalSteals:      st.LocalSteals,
		RemoteSteals:     st.RemoteSteals,
		Executed:         st.Executed,
		SpawnedWorkers:   sc.SpawnedWorkers(),
		RetiredWorkers:   sc.RetiredWorkers(),
		InjectorDepth:    sc.InjectorDepth(),
		PeggedFor:        sc.PeggedFor(),
		Stalls:           st.Stalls,
		CounterFlushes:   st.CounterFlushes,
		CounterLocalIncs: st.CounterLocalIncs,
	}
	if pr, ok := r.n.Dag().Algorithm().(counter.PromotionReporter); ok {
		s.Promotions = pr.Promotions()
	}
	if dr, ok := r.n.Dag().Algorithm().(counter.DemotionReporter); ok {
		s.Demotions = dr.Demotions()
	}
	return s
}

// Scheduler exposes the underlying scheduler (advanced: stats,
// watchdog hook). Most callers want Stats.
func (r *Runtime) Scheduler() *sched.Scheduler { return r.n.Scheduler() }

// Dag exposes the underlying sp-dag (advanced: validation,
// instrumentation). Most callers want Stats.
func (r *Runtime) Dag() *spdag.Dag { return r.n.Dag() }

// Nested exposes the frontend runtime for interop with internal
// packages (the benchmark harness and workload generators).
func (r *Runtime) Nested() *nested.Runtime { return r.n }

// The package-level default runtime: started lazily on first use with
// all defaults (GOMAXPROCS workers, the contention-adaptive counter),
// shared process-wide, never closed.
var (
	defaultOnce sync.Once
	defaultRT   *Runtime
)

// Default returns the lazily-initialized package-level Runtime shared
// by Do and DoContext.
func Default() *Runtime {
	defaultOnce.Do(func() { defaultRT = NewRuntime() })
	return defaultRT
}

// Do runs f on the package-level default Runtime (started on first
// use): the zero-setup entry point for programs that don't need their
// own Runtime.
func Do(f Task) error { return Default().Run(f) }

// DoContext is RunContext on the package-level default Runtime.
func DoContext(ctx context.Context, f Task) error {
	return Default().RunContext(ctx, f)
}

// Topology maps worker slots to locality nodes (see WithTopology and
// internal/topology). The zero value means "auto-detect the host".
type Topology = topology.Topology

// DetectTopology returns the host's NUMA topology from Linux sysfs,
// degrading to a flat single-node topology on hosts that expose none.
// The result is cached process-wide.
func DetectTopology() Topology { return topology.Detect() }

// SyntheticTopology builds a nodes×slotsPerNode block-layout topology,
// so topology-aware scheduling (two-phase stealing, per-node vertex
// pools, least-loaded spawn) can be exercised and measured on any
// host, NUMA hardware or not.
func SyntheticTopology(nodes, slotsPerNode int) Topology {
	return topology.Synthetic(nodes, slotsPerNode)
}

// FlatTopology returns the locality-blind single-node topology over
// the given number of slots — the explicit off switch for
// topology-aware scheduling.
func FlatTopology(slots int) Topology { return topology.Flat(slots) }
