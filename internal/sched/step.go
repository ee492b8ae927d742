package sched

// Pure per-worker decision logic, extracted from the worker loops so
// that two drivers can share it: the production goroutine loop (this
// package) and the deterministic discrete-event simulator
// (internal/sim), which replays injector traces against the same
// decisions at thousands of simulated workers. Everything in this file
// is a pure function of its arguments — no atomics, no clock, no
// scheduler state — which is exactly what makes the simulator's
// behavior a seed-determined property instead of a host-dependent
// measurement.
//
// The split of responsibilities: these functions decide *what* a
// worker does (spawn, retire, park escalation, victim order, spawn
// placement); the drivers own *how* the decision is applied (atomic
// CAS discipline and goroutines in production, array updates in the
// simulator).

import "repro/internal/rng"

// IdleAction is the escalation step an idle worker takes, decided by
// IdleStep.
type IdleAction int

const (
	// IdleSpin busy-retries the find-work loop: work usually appears
	// within microseconds in a busy computation.
	IdleSpin IdleAction = iota
	// IdleYield hands the P back to the Go scheduler cooperatively.
	IdleYield
	// IdlePark blocks the worker on its semaphore until a producer
	// wakes it (and, above the pool floor, starts the retirement
	// clock).
	IdlePark
)

// IdleStep returns the backoff escalation for the given count of
// consecutive idle find-work rounds: spin briefly, then yield, then
// park. The thresholds are the spin→yield→park ladder the worker loop
// (run) climbs.
func IdleStep(rounds int) IdleAction {
	switch {
	case rounds < spinRounds:
		return IdleSpin
	case rounds < yieldRounds:
		return IdleYield
	default:
		return IdlePark
	}
}

// SpawnSignal is the outcome of one SpawnPressureStep: what a wake
// attempt that found no parked worker tells the elastic pool.
type SpawnSignal int

const (
	// SignalNone: backlog present but not yet sustained — pressure is
	// building.
	SignalNone SpawnSignal = iota
	// SignalIdle: the backlog is below the sustained-signal floor; the
	// attempt is a one-shot spike, pressure resets, and any
	// pegged-overload stamp is withdrawn.
	SignalIdle
	// SignalSpawn: the spawnPressure-th consecutive backlogged attempt
	// — spawn a worker (or stamp pegged, at the ceiling).
	SignalSpawn
)

// SpawnPressureStep is one step of the sustained-backlog spawn signal:
// given the injector backlog a wake attempt observed (having found no
// parked worker to claim) and the current pressure counter, it returns
// the new pressure and the signal. The ≥ 2 backlog floor matters
// because pressure is only sampled at wake attempts: a lone submission
// into a momentarily-unparked pool always observes its own vertex
// (size 1), so without the floor a sequence of such one-shot spikes —
// each fully drained before the next — would masquerade as a sustained
// backlog.
//
// The production driver applies the step under a CAS loop (producers
// race on the shared pressure counter); the simulator applies it
// directly.
func SpawnPressureStep(backlog int, pressure int32) (int32, SpawnSignal) {
	if backlog < 2 {
		return 0, SignalIdle
	}
	pressure++
	if pressure < spawnPressure {
		return pressure, SignalNone
	}
	return 0, SignalSpawn
}

// VictimWalk returns the starting offset of a one-round cyclic walk
// over n victims, drawn from the worker's generator. A full cyclic
// walk from a random start tries every victim exactly once per round —
// sampling with replacement would skip an available victim with
// probability ≈ 1/e per round, and a skipped local victim escalates
// the thief to a remote steal. WalkVictim indexes the walk.
func VictimWalk(g *rng.Xoshiro256ss, n int) int {
	return int(g.Uint64n(uint64(n)))
}

// WalkVictim returns the index of the attempt-th victim of a cyclic
// walk from start over n victims.
func WalkVictim(start, attempt, n int) int {
	return (start + attempt) % n
}

// RetireEligible reports whether a worker whose retirement window
// elapsed with no wake may actually retire: only while the pool stays
// at or above its floor without it. The production driver re-checks
// this under a CAS reservation on the live count (parkTimed); the
// simulator's single-threaded step applies it directly.
func RetireEligible(nlive, min int) bool {
	return nlive > min
}

// SpawnPlacement picks the slot an elastic spawn claims: the dormant
// slot on the least-loaded node, so growth spreads across nodes
// instead of piling every spawn onto the first free slot (under a flat
// topology every slot ties on node 0 and the choice reduces to the
// first dormant slot). nodeOf maps slot → node, dormant marks
// claimable slots, load counts non-dormant workers per node. Returns
// -1 when no slot is dormant.
func SpawnPlacement(nodeOf []int, dormant []bool, load []int) int {
	best := -1
	for i, d := range dormant {
		if !d {
			continue
		}
		if best == -1 || load[nodeOf[i]] < load[nodeOf[best]] {
			best = i
		}
	}
	return best
}
