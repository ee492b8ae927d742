package sim_test

// Property tests at 1000 simulated workers — the scale the repo's CI
// hosts cannot reach with real goroutines. These pin the invariants
// the small -race stress tests in internal/sched/elastic_test.go
// assert, but as exact properties of a deterministic run:
//
//   - Work conservation: every vertex executed exactly once — the
//     executed total equals the workload's vertex count, and the
//     timeline's per-tick executions sum to the same (no vertex
//     executed twice or lost).
//   - No lost wakeup: backlog > 0 with every live worker parked is
//     unreachable. The engine checks this every tick and fails the
//     run; the tests assert the run succeeds.
//   - Elastic invariant: after quiesce-to-floor, spawned == retired
//     and the pool is back at exactly its floor.

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// expectedExecuted is the workload's exact vertex count: 2^(D+1) per
// arrival of depth D.
func expectedExecuted(arr []sim.Arrival) uint64 {
	var total uint64
	for _, a := range arr {
		total += 2 << a.Depth
	}
	return total
}

func checkConservation(t *testing.T, label string, r sim.Result, arr []sim.Arrival) {
	t.Helper()
	if want := expectedExecuted(arr); r.Executed != want {
		t.Errorf("%s: executed %d, want %d (vertex lost or duplicated)", label, r.Executed, want)
	}
	var fromTimeline uint64
	for _, tk := range r.Timeline {
		fromTimeline += uint64(tk.Executed)
	}
	if fromTimeline != r.Executed {
		t.Errorf("%s: timeline sums to %d executions, counters say %d", label, fromTimeline, r.Executed)
	}
	if r.Steals != r.LocalSteals+r.RemoteSteals {
		t.Errorf("%s: steal decomposition broken: %d != %d+%d", label, r.Steals, r.LocalSteals, r.RemoteSteals)
	}
	if r.Truncated {
		t.Errorf("%s: run truncated at MaxTicks", label)
	}
}

func TestPropWorkConservation1000(t *testing.T) {
	arr := []sim.Arrival{
		{Tick: 0, Depth: 12}, {Tick: 0, Depth: 10}, {Tick: 3, Depth: 11},
		{Tick: 7, Depth: 12}, {Tick: 7, Depth: 8},
	}
	for _, topo := range []topology.Topology{topology.Flat(1000), topology.Synthetic(8, 125)} {
		r, err := sim.Run(sim.Config{
			Workers: 1000, Topo: topo, Seed: 11, Arrivals: arr,
		})
		label := topoLabel(topo)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkConservation(t, label, r, arr)
		if r.Spawned != 0 || r.Retired != 0 {
			t.Errorf("%s: fixed 1000-worker pool moved: spawned=%d retired=%d", label, r.Spawned, r.Retired)
		}
	}
}

func topoLabel(tp topology.Topology) string {
	if tp.Nodes() > 1 {
		return "multi-node"
	}
	return "flat"
}

// TestPropNoLostWakeup1000 drives the shape most likely to lose a
// wake: a long stream of small arrivals with idle gaps wide enough for
// the whole pool to park between them. The engine's per-tick check —
// backlog > 0 ∧ all live workers parked — fails the run if any wake
// goes missing.
func TestPropNoLostWakeup1000(t *testing.T) {
	var arr []sim.Arrival
	for i := 0; i < 40; i++ {
		// Gap 200 ticks: the spin→yield→park ladder parks after 64 idle
		// rounds, so every worker is parked well before each arrival.
		arr = append(arr, sim.Arrival{Tick: i * 200, Depth: 5})
	}
	r, err := sim.Run(sim.Config{
		Workers: 1000, Seed: 23, Arrivals: arr,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "no-lost-wakeup", r, arr)
}

// TestPropElasticQuiesce1000 grows a pool from a 16-worker floor
// toward a 1000-worker ceiling under a burst of arrivals, then lets it
// quiesce: every spawned worker must retire, leaving exactly the floor.
func TestPropElasticQuiesce1000(t *testing.T) {
	var arr []sim.Arrival
	for i := 0; i < 128; i++ {
		arr = append(arr, sim.Arrival{Tick: i / 32, Depth: 9})
	}
	r, err := sim.Run(sim.Config{
		Workers: 16, MaxWorkers: 1000, Seed: 5, Arrivals: arr,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "elastic", r, arr)
	if r.Spawned != r.Retired {
		t.Errorf("spawned %d != retired %d after quiesce", r.Spawned, r.Retired)
	}
	if r.SteadyLive != 16 {
		t.Errorf("steady live %d, want the 16-worker floor", r.SteadyLive)
	}
	if r.Spawned == 0 {
		t.Error("burst never grew the pool (spawned=0) — the scenario lost its point")
	}
	if r.PeakLive <= 16 {
		t.Errorf("peak live %d never rose above the floor", r.PeakLive)
	}
}

// TestPropPromotionContention pins the counter model's central
// behavior: a single worker can never collide with itself (zero
// promotions), while a contended pool promotes.
func TestPropPromotionContention(t *testing.T) {
	arr := []sim.Arrival{{Tick: 0, Depth: 12}}
	r1, err := sim.Run(sim.Config{Workers: 1, Seed: 2, Arrivals: arr})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Promotions != 0 {
		t.Errorf("1 worker: %d promotions, want 0 (no concurrency, no contention)", r1.Promotions)
	}
	r1000, err := sim.Run(sim.Config{Workers: 1000, Seed: 2, Arrivals: arr})
	if err != nil {
		t.Fatal(err)
	}
	if r1000.Promotions == 0 {
		t.Error("1000 workers: no promotion on a depth-12 tree — the contention model is dead")
	}
}
