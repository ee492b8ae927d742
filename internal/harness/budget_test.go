package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// allocSlack is how far above its budget a cell's allocations may
// read. Each budget is the allocs/op a cell measured when it was cut,
// so a 10 % margin separates a regression from run-to-run drift in the
// cells whose counter trees grow with scheduling (dyn, snzi-D).
const allocSlack = 1.10

// checkAllocs logs a cell's allocations and fails t when they exceed
// its budget by more than the slack.
func checkAllocs(t *testing.T, name string, allocs, budget float64) {
	t.Helper()
	t.Logf("%s: %.0f allocs/op (budget %.0f, %+.1f %%)", name, allocs, budget, 100*(allocs/budget-1))
	if limit := budget * allocSlack; allocs > limit {
		t.Errorf("%s: %.0f allocs/op, budget %.0f (limit %.0f)", name, allocs, budget, limit)
	}
}

// TestSimCells runs the sim figure's full-scale cells (SimCells) and
// compares every outcome field with testdata/simcells.golden. Each is
// a pure function of its config, so the comparison is exact: one steal
// of drift means the modeled decision logic changed, and the golden is
// regenerated (UPDATE_GOLDEN=1) in the change that moved it. Outside
// -race each cell also holds an allocation budget for the simulator
// itself.
func TestSimCells(t *testing.T) {
	budgets := map[string]float64{"flat": 55039, "8-node": 121702, "elastic": 108853}
	var b strings.Builder
	for _, c := range SimCells() {
		var res sim.Result
		var err error
		run := func() { res, err = sim.Run(c.Config) }
		if raceEnabled {
			run()
		} else {
			checkAllocs(t, "sim/"+c.Name, testing.AllocsPerRun(1, run), budgets[c.Name])
		}
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		res.Timeline = nil
		fmt.Fprintf(&b, "%s: %+v\n", c.Name, res)
	}
	checkGolden(t, "testdata/simcells.golden", []byte(b.String()))
}

// TestCellAllocBudgets holds the kernel cells of the root benchmarks
// BenchmarkFig08Fanin, BenchmarkPhaseShift, BenchmarkZipfHotKey,
// BenchmarkBurst and BenchmarkFig13Topology to their allocation
// budgets. Each cell is built by NewCell from its benchmark's spec at
// seed 1 and measured over one run after a warm one. AllocsPerRun pins
// GOMAXPROCS to 1 while it measures, so the counts do not follow the
// host's parallelism; a p=2 cell still runs two workers.
func TestCellAllocBudgets(t *testing.T) {
	if raceEnabled || nestedChecks {
		t.Skip("race instrumentation and unpooled Ctxs change allocation behaviour")
	}
	const n = 1 << 14 // the root benchmarks' fanin leaves
	// BenchmarkBurst offers every pool the same lanes, not lanes at
	// twice the pool's own ceiling as Cell.Run does.
	burst := workload.BurstConfig{Leaves: n / 16, Storms: 4, Lanes: 8, Gap: 2 * time.Millisecond}
	cells := []struct {
		name   string
		spec   Spec
		allocs float64
	}{
		{"Fig08Fanin/fetchadd/p=1", Spec{Bench: "fanin", Algo: "fetchadd", Procs: 1, N: n}, 32777},
		{"Fig08Fanin/fetchadd/p=2", Spec{Bench: "fanin", Algo: "fetchadd", Procs: 2, N: n}, 32781},
		{"Fig08Fanin/snzi-1/p=1", Spec{Bench: "fanin", Algo: "snzi-1", Procs: 1, N: n}, 98322},
		{"Fig08Fanin/snzi-1/p=2", Spec{Bench: "fanin", Algo: "snzi-1", Procs: 2, N: n}, 98324},
		{"Fig08Fanin/snzi-4/p=1", Spec{Bench: "fanin", Algo: "snzi-4", Procs: 1, N: n}, 98338},
		{"Fig08Fanin/snzi-4/p=2", Spec{Bench: "fanin", Algo: "snzi-4", Procs: 2, N: n}, 98342},
		{"Fig08Fanin/snzi-8/p=1", Spec{Bench: "fanin", Algo: "snzi-8", Procs: 1, N: n}, 98583},
		{"Fig08Fanin/snzi-8/p=2", Spec{Bench: "fanin", Algo: "snzi-8", Procs: 2, N: n}, 98591},
		{"Fig08Fanin/dyn/p=1", Spec{Bench: "fanin", Algo: "dyn", Procs: 1, N: n}, 33998},
		{"Fig08Fanin/dyn/p=2", Spec{Bench: "fanin", Algo: "dyn", Procs: 2, N: n}, 33421},
		{"Fig08Fanin/adaptive/p=1", Spec{Bench: "fanin", Algo: "adaptive", Procs: 1, N: n}, 32777},
		{"Fig08Fanin/adaptive/p=2", Spec{Bench: "fanin", Algo: "adaptive", Procs: 2, N: n}, 32780},
		{"PhaseShift/fetchadd/p=1", Spec{Bench: "phase-shift", Algo: "fetchadd", Procs: 1, N: n}, 33198},
		{"PhaseShift/fetchadd/p=2", Spec{Bench: "phase-shift", Algo: "fetchadd", Procs: 2, N: n}, 33252},
		{"PhaseShift/dyn/p=1", Spec{Bench: "phase-shift", Algo: "dyn", Procs: 1, N: n}, 35442},
		{"PhaseShift/dyn/p=2", Spec{Bench: "phase-shift", Algo: "dyn", Procs: 2, N: n}, 34886},
		{"PhaseShift/adaptive/p=1", Spec{Bench: "phase-shift", Algo: "adaptive", Procs: 1, N: n}, 33197},
		{"PhaseShift/adaptive/p=2", Spec{Bench: "phase-shift", Algo: "adaptive", Procs: 2, N: n}, 33252},
		{"ZipfHotKey/adaptive:0/p=1", Spec{Bench: "zipf", Algo: "adaptive:0", Procs: 1, N: n / 4}, 5413},
		{"ZipfHotKey/adaptive:0/p=2", Spec{Bench: "zipf", Algo: "adaptive:0", Procs: 2, N: n / 4}, 5323},
		{"ZipfHotKey/adaptive:0:16/p=1", Spec{Bench: "zipf", Algo: "adaptive:0:16", Procs: 1, N: n / 4}, 5214},
		{"ZipfHotKey/adaptive:0:16/p=2", Spec{Bench: "zipf", Algo: "adaptive:0:16", Procs: 2, N: n / 4}, 5217},
		{"Burst/fixed-min", Spec{Bench: "burst", Algo: "adaptive", Procs: 1, N: n / 16}, 65711},
		{"Burst/fixed-max", Spec{Bench: "burst", Algo: "adaptive", Procs: 4, N: n / 16}, 65713},
		{"Burst/elastic", Spec{Bench: "burst", Algo: "adaptive", Procs: 1, MaxWorkers: 4, N: n / 16}, 65717},
		{"Fig13Topology/flat/fetchadd", Spec{Bench: "fanin-numa", Algo: "fetchadd", Procs: 2, Nodes: 1, N: n}, 32780},
		{"Fig13Topology/flat/dyn", Spec{Bench: "fanin-numa", Algo: "dyn", Procs: 2, Nodes: 1, N: n}, 33415},
		{"Fig13Topology/2-node/fetchadd", Spec{Bench: "fanin-numa", Algo: "fetchadd", Procs: 2, Nodes: 2, N: n}, 32780},
		{"Fig13Topology/2-node/dyn", Spec{Bench: "fanin-numa", Algo: "dyn", Procs: 2, Nodes: 2, N: n}, 33425},
	}
	for _, c := range cells {
		c.spec.Seed = 1
		cell, err := NewCell(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		run := func() { cell.Run() }
		if c.spec.Bench == "burst" {
			run = func() { workload.Burst(cell.RT, burst) }
		}
		allocs := testing.AllocsPerRun(1, run)
		cell.Close()
		checkAllocs(t, c.name, allocs, c.allocs)
	}
}
