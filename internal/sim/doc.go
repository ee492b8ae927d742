// Package sim is a deterministic discrete-event simulator of the
// elastic work-stealing scheduler in internal/sched: it replays a
// seeded injector trace (computation arrivals) against the same
// per-worker decision logic the production scheduler runs — the pure
// step functions of internal/sched/step.go (victim walks, the
// spin→yield→park ladder, the sustained-backlog spawn signal,
// retirement eligibility, spawn placement) — under a virtual tick
// clock instead of goroutines and wall time.
//
// Why it exists: every committed number in this repo is measured on
// whatever CI host runs the benchmarks, and the paper's central
// scale-dependent claims — adaptive-counter promotion under contention,
// steal locality across NUMA nodes — only show themselves at real
// parallelism. The simulator turns those claims into *testable
// properties*: it schedules 1000+ simulated workers on any host, its
// entire run is a function of (Config, Seed), and its outputs are
// integers that can be gated exactly (bench/baseline_sim.txt,
// cmd/benchgate -exact-metrics), not ratios with slop.
//
// What it models, and how faithfully:
//
//   - One simulated worker takes one action per tick, in worker-id
//     order: execute one vertex (own deque bottom, then the injector
//     FIFO, then a steal), or take one idle step of the
//     spin→yield→park ladder.
//     The workload is the test suite's binary spawn tree: a
//     computation of depth D executes exactly 2^(D+1) vertices
//     (2^(D+1)−1 tree vertices plus the final), the same count the
//     real scheduler's Stats reports for spawnTree — which is what
//     makes the cross-validation test exact on executed totals.
//   - Victim selection replays sched's two-phase locality order with
//     the same per-worker RNGs (seed + id·0x9e37, as sched.New) and
//     the same VictimWalk/WalkVictim cyclic walks over the same
//     victim-list construction.
//   - Elasticity replays SpawnPressureStep/SpawnPlacement/
//     RetireEligible directly: wake attempts that find no parked
//     worker build spawn pressure, spawns claim the dormant slot on
//     the least-loaded node, parked workers above the floor retire
//     after RetireAfterTicks, and a full pool with sustained backlog
//     counts pegged ticks.
//   - Adaptive counters are modeled by counter.ContentionStep: the k
//     workers that touch one computation's finish counter in the same
//     tick are concurrent by construction, costing k−1 CAS misses;
//     crossing the contention threshold promotes the counter once.
//     One counter per computation — the coarsest (most conservative)
//     contention surface.
//
// What it deliberately does not model: instruction timing, cache
// behavior, or the memory-level races of the real scheduler (the park
// recheck, the Chase-Lev steal CAS). Steal *counts* are therefore
// scheduling-shaped, not timing-shaped — the cross-validation test
// pins the deterministic quantities exactly (executed totals,
// fixed-pool spawn/retire, the local+remote decomposition, zero steals
// at one worker) and treats steal totals as qualitative.
//
// Determinism argument: the tick loop is one goroutine; workers act in
// id order; each worker's RNG is consumed only inside its own action;
// arrivals, the injector, and all queues are slices (no map
// iteration); and nothing reads the host clock, GOMAXPROCS, or the Go
// scheduler. Two runs with equal Config therefore produce identical
// traces byte-for-byte, on any host at any GOMAXPROCS — asserted by
// the golden-trace test.
package sim
