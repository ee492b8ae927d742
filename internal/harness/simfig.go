package harness

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// simScale sizes the sim figure: the full 1024-worker scale, or the
// shrunk -quick one.
type simScale struct {
	workers      []int // fan-out table axis
	roots, depth int   // fan-out arrivals
	big          int   // workers of the locality table and elastic ceiling
	floor        int   // elastic pool floor
	elasticRoots int
	elasticDepth int
}

func simScaleFor(quick bool) simScale {
	if quick {
		return simScale{[]int{1, 16, 64}, 4, 8, 64, 4, 32, 9}
	}
	return simScale{[]int{1, 16, 64, 256, 1024}, 4, 12, 1024, 16, 128, 9}
}

// simArrivals batches n roots of depth d, 32 per tick, so fixed-pool
// runs see the full fan-out at once and elastic runs see a sustained
// injector backlog (trickled arrivals never cross the spawn-pressure
// floor; see internal/sim's doc).
func simArrivals(n, d int) []sim.Arrival {
	arr := make([]sim.Arrival, n)
	for i := range arr {
		arr[i] = sim.Arrival{Tick: i / 32, Depth: d}
	}
	return arr
}

// fanout replays the scale's fan-out on w workers spread over nodes
// locality nodes (flat when nodes ≤ 1).
func (s simScale) fanout(w, nodes int) sim.Config {
	topo := topology.Flat(w)
	if nodes > 1 {
		topo = topology.Synthetic(nodes, w/nodes)
	}
	return sim.Config{Workers: w, Seed: 1, Topo: topo, Arrivals: simArrivals(s.roots, s.depth)}
}

// elastic grows the pool from its floor to the big ceiling under a
// batched storm.
func (s simScale) elastic() sim.Config {
	return sim.Config{Workers: s.floor, MaxWorkers: s.big, Seed: 1,
		Topo: topology.Flat(s.big), RetireAfterTicks: 16,
		Arrivals: simArrivals(s.elasticRoots, s.elasticDepth)}
}

// SimCell is one named configuration of the sim figure.
type SimCell struct {
	Name   string
	Config sim.Config
}

// SimCells returns the sim figure's full-scale 1024-worker cells —
// the flat and 8-node fan-outs and the elastic pool — which
// TestSimCells pins exactly and BenchmarkSim times.
func SimCells() []SimCell {
	s := simScaleFor(false)
	return []SimCell{{"flat", s.fanout(s.big, 1)}, {"8-node", s.fanout(s.big, 8)}, {"elastic", s.elastic()}}
}

// Sim drives the discrete-event scheduler replay (`ppopp17bench -fig
// sim`; internal/sim, DESIGN.md §12): the per-worker decision logic
// of internal/sched — victim walks, spawn pressure, retirement, the
// adaptive counter's promotion rule — stepped under a simulated clock
// at worker counts the real harness cannot reach on any runner. Every
// number here is a pure function of the config, so the tables read as
// scheduling shape (how many steals resolved locally, when the
// adaptive counter promoted, how far the elastic pool moved), not
// timing, and the full-scale cells (SimCells) are pinned cell by cell
// with exact equality rather than ratios.
func Sim(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Sim", Title: "Discrete-event scheduler replay: 1000+ simulated workers, deterministic"}
	s := simScaleFor(o.Quick)

	record := func(cfg sim.Config) (sim.Result, error) {
		res, err := sim.Run(cfg)
		if err != nil {
			return res, err
		}
		if res.Truncated {
			return res, fmt.Errorf("sim: w=%d nodes=%d truncated at %d ticks",
				cfg.Workers, cfg.Topo.Nodes(), res.Ticks)
		}
		// The sim record is virtual-time-shaped: no exectime, no caveat
		// (the simulation is host-independent by construction — that
		// is the point), scheduling counts out. proc is the simulated
		// worker floor, far beyond any host.
		elastic := cfg.MaxWorkers > cfg.Workers
		b := report.NewBlock().
			In("bench", "sim").
			In("proc", cfg.Workers).
			In("n", len(cfg.Arrivals))
		if elastic {
			b.In("maxproc", cfg.MaxWorkers)
		}
		if nodes := cfg.Topo.Nodes(); nodes > 1 {
			b.In("nodes", nodes)
		}
		b.Out("nb_ticks", res.Ticks).
			Out("nb_vertices", res.Executed).
			Out("nb_steals", res.Steals).
			Out("nb_local_steals", res.LocalSteals).
			Out("nb_remote_steals", res.RemoteSteals).
			Out("nb_promotions", res.Promotions).
			Out("nb_pegged_ticks", res.PeggedTicks).
			Out("killed", 0)
		if elastic {
			b.Out("nb_peak_workers", res.PeakLive).
				Out("nb_steady_workers", res.SteadyLive).
				Out("nb_spawned_workers", res.Spawned).
				Out("nb_retired_workers", res.Retired)
		}
		rep.Blocks = append(rep.Blocks, b)
		return res, nil
	}

	// Table 1 — the phase-shift story at simulated scale: the same
	// fan-out replayed across worker counts, with promotions showing
	// where same-window finish-counter collisions push the adaptive
	// model off the fetch-and-add cell (one worker can never collide,
	// so its cell is exactly 0).
	fanTbl := stats.NewTable(
		fmt.Sprintf("sim fan-out (%d roots × depth %d, flat) by simulated workers", s.roots, s.depth),
		append([]string{"metric"}, labels("w=%d", s.workers)...)...)
	prow := []interface{}{"promotions"}
	trow := []interface{}{"ticks to quiesce"}
	for _, w := range s.workers {
		o.progress("sim promotions w=%d", w)
		res, err := record(s.fanout(w, 1))
		if err != nil {
			return nil, err
		}
		prow = append(prow, res.Promotions)
		trow = append(trow, res.Ticks)
	}
	fanTbl.AddRow(prow...)
	fanTbl.AddRow(trow...)
	rep.Tables = append(rep.Tables, fanTbl)

	// Table 2 — steal locality at full simulated scale: the two-phase
	// victim order under flat vs synthetic multi-node topologies, the
	// Fig13 mechanism at worker counts Fig13 cannot run.
	nodeAxis := []int{1, 2, 8}
	locTbl := stats.NewTable(
		fmt.Sprintf("sim steal locality at %d simulated workers (%d roots × depth %d)", s.big, s.roots, s.depth),
		"topology", "local", "remote", "local share")
	err := sweep(rep, locTbl, topoNames(nodeAxis), 1, func(r, _ int) ([]interface{}, error) {
		o.progress("sim locality nodes=%d", nodeAxis[r])
		res, err := record(s.fanout(s.big, nodeAxis[r]))
		return []interface{}{res.LocalSteals, res.RemoteSteals, localShare(res.LocalSteals, res.RemoteSteals)}, err
	})
	if err != nil {
		return nil, err
	}

	// Table 3 — the elastic pool at a ceiling no host provides: floor
	// → ceiling under a batched storm, quiescing back with spawn and
	// retire balanced (the invariant the 1000-worker property test
	// asserts; here it is a table cell).
	elaTbl := stats.NewTable(
		fmt.Sprintf("sim elastic pool %d→%d (%d roots × depth %d)", s.floor, s.big, s.elasticRoots, s.elasticDepth),
		"spawned", "retired", "peak", "steady", "pegged ticks")
	o.progress("sim elastic")
	res, err := record(s.elastic())
	if err != nil {
		return nil, err
	}
	if res.Spawned != res.Retired {
		return nil, fmt.Errorf("sim elastic: spawned %d != retired %d after quiesce",
			res.Spawned, res.Retired)
	}
	elaTbl.AddRow(res.Spawned, res.Retired, res.PeakLive, res.SteadyLive, res.PeggedTicks)
	rep.Tables = append(rep.Tables, elaTbl)

	rep.Notes = append(rep.Notes,
		"every cell is deterministic from (seed, config): scheduling shape, not timing — see internal/sim",
		"expected: promotions 0 at w=1 and rising with workers; multi-node topologies resolve most steals in the local phase; elastic spawned == retired with steady back at the floor")
	return rep, nil
}
