// Package sched implements the work-stealing scheduler the runtime
// runs on: a pool of workers, each with a concurrent Chase–Lev deque
// of ready sp-dag vertices, executing locally in LIFO order and
// stealing from random victims in FIFO order when idle. (The paper's
// own runtime used the private deques of its reference [2], Acar–
// Charguéraud–Rainey PPoPP'13; the finish counter under study does not
// depend on the stealing protocol.) Victim selection is
// topology-aware: under a multi-node locality
// map (WithTopology, internal/topology) thieves make a randomized
// round over same-node victims before falling back to remote nodes,
// vertex storage pools per node, and elastic spawns land on the
// least-loaded node — locality is a preference, never a correctness
// condition (DESIGN.md §8).
//
// The scheduler is deliberately simple — the subject of the paper is
// the dependency counter, and the evaluation's `proc` axis only needs
// a faithful structured-scheduling environment: local pushes from
// running vertices, randomized stealing, and an external injection
// path for roots. Three costs are engineered away so that measured
// throughput reflects the counter rather than the scheduler:
//
//   - external submission is a lock-free intrusive MPSC queue
//     (injector.go), so many computations can be injected concurrently
//     without serializing on a lock;
//   - idle workers park on a per-worker semaphore after a short
//     spin/yield phase instead of sleep-polling, so an idle
//     multi-tenant Runtime consumes ~0 CPU;
//   - the pool is elastic: workers are spawned only while there is
//     load to amortize them (New's min), growing toward a configured
//     maximum under sustained injector backlog and retiring back to
//     the minimum after long parks, so a Runtime sized for burst
//     traffic does not permanently hold max deques, stacks, and
//     steal-loop participants.
//
// # Worker lifecycle
//
// Every worker slot (there are exactly MaxWorkers of them, fixed at
// construction so slot indices stay valid forever) is in one of two
// states: live — a goroutine is running its loop — or dormant — no
// goroutine; the slot holds only its identity (RNG, semaphore,
// lifetime stats). A live worker cycles execute → spin → yield → park
// as idleness persists, and a parked worker above the minimum retires
// (goroutine exits, slot goes dormant) when nothing wakes it for
// RetireAfter:
//
//	          work found                      work found
//	 ┌───────────────────────┐   ┌────────────────────────────────┐
//	 ▼                       │   ▼                                │
//	execute ──deque empty──▶ spin ──▶ yield ──▶ park ──timeout──▶ retire
//	 ▲                                           │              (dormant)
//	 │   woken by: Submit ─ local push with      │                  │
//	 └── parked workers ─ Shutdown ◀─────────────┘     sustained backlog
//	 ▲                                                              │
//	 └────────────────────────── spawn ◀────────────────────────────┘
//
// Spawn signal (sustained backlog, not a one-shot spike): a wake
// attempt that finds the injector backlog non-empty but no parked
// worker to claim raises a pressure count; when a second consecutive
// such attempt observes the backlog still non-empty, a dormant slot is
// spawned (up to MaxWorkers). A single submission into a busy pool
// therefore never spawns — the backlog has to survive across wake
// attempts.
//
// Retire discipline: a retiring worker must leave exactly as a waker
// would have found it, so it decommissions its wake-claim flag with
// the same CAS wakeOne uses — it claims *itself*. If the CAS fails, a
// waker won the race and its semaphore token is imminent: the worker
// consumes it and returns to scanning instead of retiring. If the CAS
// succeeds, no token is or ever will be outstanding, and the worker
// exits after handing its storage back: the deque must be empty (the
// park invariant, asserted), its ring is released, the vertex freelist
// drains into the slot's node pool (spdag.ExecContext.DrainFree), and the
// stats block stays with the slot so Stats() remains exact across
// retire/respawn cycles.
//
// The full lost-wakeup argument for the park/wake/retire protocol is
// in DESIGN.md §7.
package sched
