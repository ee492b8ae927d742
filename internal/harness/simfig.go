package harness

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Sim drives the discrete-event scheduler replay (`ppopp17bench -fig
// sim`; internal/sim, DESIGN.md §12): the per-worker decision logic
// of internal/sched — victim walks, spawn pressure, retirement, the
// adaptive counter's promotion rule — stepped under a simulated clock
// at worker counts the real harness cannot reach on any runner. Every
// number here is a pure function of the config, so the tables read as
// scheduling shape (how many steals resolved locally, when the
// adaptive counter promoted, how far the elastic pool moved), not
// timing, and the benchmark built on them (BenchmarkSim) is gated
// cell-by-cell with exact equality rather than ratios.
func Sim(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Sim", Title: "Discrete-event scheduler replay: 1000+ simulated workers, deterministic"}
	const seed = 1
	workersAxis := []int{1, 16, 64, 256, 1024}
	depth, roots := 12, 4
	big := 1024
	elasticFloor, elasticRoots, elasticDepth := 16, 128, 9
	if o.Quick {
		workersAxis = []int{1, 16, 64}
		depth, big = 8, 64
		elasticFloor, elasticRoots = 4, 32
	}

	// Batched arrivals: all roots land at tick 0, so fixed-pool runs
	// see the full fan-out at once and elastic runs see a sustained
	// injector backlog (trickled arrivals never cross the
	// spawn-pressure floor; see internal/sim's doc).
	burst := func(n, d int) []sim.Arrival {
		arr := make([]sim.Arrival, n)
		for i := range arr {
			arr[i] = sim.Arrival{Tick: i / 32, Depth: d}
		}
		return arr
	}

	record := func(cfg sim.Config, nodes int) (sim.Result, error) {
		res, err := sim.Run(cfg)
		if err != nil {
			return res, err
		}
		if res.Truncated {
			return res, fmt.Errorf("sim: w=%d nodes=%d truncated at %d ticks",
				cfg.Workers, nodes, res.Ticks)
		}
		rep.Measurements = append(rep.Measurements, Measurement{
			Spec: Spec{Bench: "sim", Procs: cfg.Workers,
				MaxWorkers: cfg.MaxWorkers, Nodes: nodes,
				N: uint64(len(cfg.Arrivals)), Seed: cfg.Seed},
			Vertices:      int64(res.Executed),
			Steals:        res.Steals,
			LocalSteals:   res.LocalSteals,
			RemoteSteals:  res.RemoteSteals,
			Promotions:    res.Promotions,
			Spawned:       res.Spawned,
			Retired:       res.Retired,
			PeakWorkers:   res.PeakLive,
			SteadyWorkers: res.SteadyLive,
			Ticks:         res.Ticks,
			PeggedTicks:   res.PeggedTicks,
		})
		return res, nil
	}

	// Table 1 — the phase-shift story at simulated scale: the same
	// fan-out replayed across worker counts, with promotions showing
	// where same-window finish-counter collisions push the adaptive
	// model off the fetch-and-add cell (one worker can never collide,
	// so its cell is exactly 0).
	fanTbl := stats.NewTable(
		fmt.Sprintf("sim fan-out (%d roots × depth %d, flat) by simulated workers", roots, depth),
		append([]string{"metric"}, wStrings(workersAxis)...)...)
	prow := []interface{}{"promotions"}
	trow := []interface{}{"ticks to quiesce"}
	for _, w := range workersAxis {
		o.progress("sim promotions w=%d", w)
		res, err := record(sim.Config{Workers: w, Seed: seed,
			Topo: topology.Flat(w), Arrivals: burst(roots, depth)}, 1)
		if err != nil {
			return nil, err
		}
		prow = append(prow, fmt.Sprintf("%d", res.Promotions))
		trow = append(trow, fmt.Sprintf("%d", res.Ticks))
	}
	fanTbl.AddRow(prow...)
	fanTbl.AddRow(trow...)
	rep.Tables = append(rep.Tables, fanTbl)

	// Table 2 — steal locality at full simulated scale: the two-phase
	// victim order under flat vs synthetic multi-node topologies, the
	// Fig13 mechanism at worker counts Fig13 cannot run.
	nodeAxis := []int{1, 2, 8}
	locTbl := stats.NewTable(
		fmt.Sprintf("sim steal locality at %d simulated workers (%d roots × depth %d)", big, roots, depth),
		"topology", "local", "remote", "local share")
	for _, nodes := range nodeAxis {
		o.progress("sim locality nodes=%d", nodes)
		topo := topology.Flat(big)
		if nodes > 1 {
			topo = topology.Synthetic(nodes, big/nodes)
		}
		res, err := record(sim.Config{Workers: big, Seed: seed,
			Topo: topo, Arrivals: burst(roots, depth)}, nodes)
		if err != nil {
			return nil, err
		}
		locTbl.AddRow(topoName(nodes),
			fmt.Sprintf("%d", res.LocalSteals), fmt.Sprintf("%d", res.RemoteSteals),
			localShare(res.LocalSteals, res.RemoteSteals))
	}
	rep.Tables = append(rep.Tables, locTbl)

	// Table 3 — the elastic pool at a ceiling no host provides: floor
	// → ceiling under a batched storm, quiescing back with spawn and
	// retire balanced (the invariant the 1000-worker property test
	// asserts; here it is a table cell).
	elaTbl := stats.NewTable(
		fmt.Sprintf("sim elastic pool %d→%d (%d roots × depth %d)", elasticFloor, big, elasticRoots, elasticDepth),
		"spawned", "retired", "peak", "steady", "pegged ticks")
	o.progress("sim elastic")
	res, err := record(sim.Config{Workers: elasticFloor, MaxWorkers: big,
		Seed: seed, Topo: topology.Flat(big), RetireAfterTicks: 16,
		Arrivals: burst(elasticRoots, elasticDepth)}, 1)
	if err != nil {
		return nil, err
	}
	if res.Spawned != res.Retired {
		return nil, fmt.Errorf("sim elastic: spawned %d != retired %d after quiesce",
			res.Spawned, res.Retired)
	}
	elaTbl.AddRow(
		fmt.Sprintf("%d", res.Spawned), fmt.Sprintf("%d", res.Retired),
		fmt.Sprintf("%d", res.PeakLive), fmt.Sprintf("%d", res.SteadyLive),
		fmt.Sprintf("%d", res.PeggedTicks))
	rep.Tables = append(rep.Tables, elaTbl)

	rep.Notes = append(rep.Notes,
		"every cell is deterministic from (seed, config): scheduling shape, not timing — see internal/sim",
		"expected: promotions 0 at w=1 and rising with workers; multi-node topologies resolve most steals in the local phase; elastic spawned == retired with steady back at the floor")
	return rep, nil
}

func wStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("w=%d", x)
	}
	return out
}
