// Package harness drives the paper's experiments: it expands a
// measurement specification into repeated runs over a configured
// runtime, averages them, and assembles per-figure reports (one table
// per figure of PPoPP'17 §5 and the appendices, plus the stall-model
// contention experiment and the ablations of DESIGN.md).
package harness

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/nested"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Spec is one measurement point.
type Spec struct {
	Bench string // fanin | indegree2 | fanin-work | fanin-numa | phase-shift | zipf | burst | snzi-stress
	Algo  string // fetchadd | dyn | adaptive[:K[:batch]] | snzi-D (counter.Parse syntax)
	Procs int
	// MaxWorkers, when > Procs, runs the benchmark on an elastic pool
	// with floor Procs and ceiling MaxWorkers (0 = fixed pool of
	// Procs). Used by the burst figure.
	MaxWorkers int
	// Nodes runs the benchmark on a synthetic topology of that many
	// locality nodes (workers spread evenly; 0/1 = the flat topology).
	// Used by the fanin-numa figure: it measures the real scheduler's
	// topology-aware stealing.
	Nodes     int
	N         uint64
	Threshold uint64 // dyn grow denominator; 0 → 25·max(Procs, MaxWorkers) (paper default)
	WorkNs    int    // dummy work per leaf (fanin-work)
	Variant   uint8  // in-counter ablation variant bits
	Runs      int    // measured repetitions (≥1)
	Seed      uint64
}

// Measurement is the averaged result of one Spec.
type Measurement struct {
	Spec             Spec
	Seconds          stats.Summary // wall-clock seconds per run
	OpsPerSecPerCore float64
	CounterOps       uint64
	Vertices         int64
	IncounterNodes   int64
	Steals           uint64
	// LocalSteals and RemoteSteals split Steals by victim locality
	// under the runtime's topology (Spec.Nodes); on a flat topology
	// every steal is local. They are the nb_local_steals /
	// nb_remote_steals artifact fields.
	LocalSteals  uint64
	RemoteSteals uint64
	// Caveat flags measurement-environment limitations (currently: the
	// host exposed fewer than 2 hardware threads, so multi-worker cells
	// measure oversubscribed interleaving, not parallel contention). It
	// is emitted into the artifact record so readers of the JSON see
	// what EXPERIMENTS.md says in prose.
	Caveat string
	// Promotions counts adaptive counters that migrated to the
	// in-counter across the measured runs (0 for static algorithms) —
	// the "which algorithm did adaptive settle on" statistic.
	Promotions uint64
	// Demotions counts promoted counters that migrated back to the
	// cell across the measured runs (0 unless the adaptive spec
	// batches: demotion exists only in the batched frontend).
	Demotions uint64
	// The batched counter frontend's coalescing ledger across the
	// measured runs, mirroring the sink's LogicalWrites/BackendCalls
	// split: units buffered in per-worker delta slots versus shared
	// RMWs the frontend actually issued. Both 0 without batching.
	CounterFlushes   uint64
	CounterLocalIncs uint64
	// Elastic-pool movement (burst benchmark): peak live workers
	// observed during the measured runs, the resident worker count
	// after the pool was given time to quiesce, and the runtime's
	// cumulative spawn/retire counts (warmup included — a warm pool
	// spawns once and stays grown through the measured runs). For a
	// fixed pool Peak == Steady == Procs and the movement counts are 0.
	PeakWorkers   int
	SteadyWorkers int
	Spawned       uint64
	Retired       uint64
	// Serving experiment (serve figure): client-observed outcome of
	// one open-loop load step against an in-process gateway. Offered
	// is the configured arrival rate; Throughput counts completed
	// (200) requests per second; ShedRate is the 429 fraction of
	// everything sent; the quantiles are client-observed latency of
	// successful requests.
	OfferedRate float64
	Throughput  float64
	ShedRate    float64
	Sent        int
	Completed   int
	Shed        int
	P50         time.Duration
	P95         time.Duration
	P99         time.Duration
	// Self-defense outcome (chaos figure): requests force-failed as
	// hung (504), hold-down trips, admissions shed while degraded, and
	// the timeline tick at which throughput was back with the degraded
	// gate lifted (-1 if recovery fell outside the window).
	Reaped        uint64
	DegradedTrips uint64
	ShedDegraded  uint64
	RecoverTick   int
	// Coalescing outcome (sink figure): the run-record sink's write
	// ledger after one async load step — every completed run is one
	// logical write, every backend WriteBatch one backend call; the
	// ratio is the write reduction coalescing bought at this
	// threshold (Spec.Threshold).
	LogicalWrites uint64
	BackendCalls  uint64
	// Discrete-event outcome (sim figure): virtual time instead of
	// wall-clock. Ticks is how many simulated steps the run took to
	// quiesce; PeggedTicks is how many of them the elastic pool spent
	// at its ceiling with backlog pressure. Every sim number is
	// deterministic from the Spec, which is why the sim benchmark is
	// gated exactly rather than by ratio.
	Ticks       int
	PeggedTicks int
}

func (m Measurement) String() string {
	return fmt.Sprintf("%s/%s p=%d n=%d: %.3gs ops/s/core=%.3g",
		m.Spec.Bench, m.Spec.Algo, m.Spec.Procs, m.Spec.N, m.Seconds.Mean, m.OpsPerSecPerCore)
}

// Block renders the measurement as an artifact-format record.
func (m Measurement) Block() *report.Block {
	if m.Spec.Bench == "chaos" {
		// The chaos record is outcome-shaped: how the gateway's
		// self-defense handled one injected wedge under background load.
		b := report.NewBlock().
			In("bench", "chaos").
			In("proc", m.Spec.Procs).
			In("n", m.Spec.N).
			Out("exectime", fmt.Sprintf("%.6f", m.Seconds.Mean)).
			Out("nb_sent", m.Sent).
			Out("nb_completed", m.Completed).
			Out("nb_shed", m.Shed).
			Out("shed_rate", fmt.Sprintf("%.4f", m.ShedRate)).
			Out("throughput_req_per_sec", fmt.Sprintf("%.1f", m.Throughput)).
			Out("nb_reaped", m.Reaped).
			Out("nb_degraded_trips", m.DegradedTrips).
			Out("nb_shed_degraded", m.ShedDegraded).
			Out("recover_tick", m.RecoverTick).
			Out("killed", 0)
		if m.Caveat != "" {
			b.Out("caveat", m.Caveat)
		}
		return b
	}
	if m.Spec.Bench == "sink" {
		// The coalescing experiment's record: async load in, the
		// sink's write-reduction ledger out.
		ratio := float64(m.LogicalWrites)
		if m.BackendCalls > 0 {
			ratio = float64(m.LogicalWrites) / float64(m.BackendCalls)
		}
		b := report.NewBlock().
			In("bench", "sink").
			In("proc", m.Spec.Procs).
			In("threshold", m.Spec.Threshold).
			In("rate", fmt.Sprintf("%.1f", m.OfferedRate)).
			Out("exectime", fmt.Sprintf("%.6f", m.Seconds.Mean)).
			Out("nb_completed", m.Completed).
			Out("nb_logical_writes", m.LogicalWrites).
			Out("nb_backend_calls", m.BackendCalls).
			Out("coalesce_ratio", fmt.Sprintf("%.1f", ratio)).
			Out("p50_ms", fmt.Sprintf("%.3f", float64(m.P50)/1e6)).
			Out("p99_ms", fmt.Sprintf("%.3f", float64(m.P99)/1e6)).
			Out("killed", 0)
		if m.Caveat != "" {
			b.Out("caveat", m.Caveat)
		}
		return b
	}
	if m.Spec.Bench == "sim" {
		// The sim record is virtual-time-shaped: no exectime, no caveat
		// (the simulation is host-independent by construction — that is
		// the point), scheduling counts out. proc is the simulated
		// worker floor, far beyond any host.
		b := report.NewBlock().
			In("bench", "sim").
			In("proc", m.Spec.Procs).
			In("n", m.Spec.N)
		if m.Spec.MaxWorkers > m.Spec.Procs {
			b.In("maxproc", m.Spec.MaxWorkers)
		}
		if m.Spec.Nodes > 1 {
			b.In("nodes", m.Spec.Nodes)
		}
		b.Out("nb_ticks", m.Ticks).
			Out("nb_vertices", m.Vertices).
			Out("nb_steals", m.Steals).
			Out("nb_local_steals", m.LocalSteals).
			Out("nb_remote_steals", m.RemoteSteals).
			Out("nb_promotions", m.Promotions).
			Out("nb_pegged_ticks", m.PeggedTicks).
			Out("killed", 0)
		if m.Spec.MaxWorkers > m.Spec.Procs {
			b.Out("nb_peak_workers", m.PeakWorkers).
				Out("nb_steady_workers", m.SteadyWorkers).
				Out("nb_spawned_workers", m.Spawned).
				Out("nb_retired_workers", m.Retired)
		}
		return b
	}
	if m.Spec.Bench == "serve" {
		// The serving experiment's record is request-shaped, not
		// counter-shaped: offered load in, throughput / shed rate /
		// client latency quantiles out.
		b := report.NewBlock().
			In("bench", "serve").
			In("proc", m.Spec.Procs).
			In("n", m.Spec.N).
			In("rate", fmt.Sprintf("%.1f", m.OfferedRate)).
			Out("exectime", fmt.Sprintf("%.6f", m.Seconds.Mean)).
			Out("nb_runs", m.Seconds.N).
			Out("nb_sent", m.Sent).
			Out("nb_completed", m.Completed).
			Out("nb_shed", m.Shed).
			Out("shed_rate", fmt.Sprintf("%.4f", m.ShedRate)).
			Out("throughput_req_per_sec", fmt.Sprintf("%.1f", m.Throughput)).
			Out("p50_ms", fmt.Sprintf("%.3f", float64(m.P50)/1e6)).
			Out("p95_ms", fmt.Sprintf("%.3f", float64(m.P95)/1e6)).
			Out("p99_ms", fmt.Sprintf("%.3f", float64(m.P99)/1e6)).
			Out("killed", 0)
		if m.Caveat != "" {
			b.Out("caveat", m.Caveat)
		}
		return b
	}
	b := report.NewBlock().
		In("bench", m.Spec.Bench).
		In("algo", m.Spec.Algo).
		In("proc", m.Spec.Procs).
		In("threshold", m.Spec.Threshold).
		In("n", m.Spec.N)
	if m.Spec.WorkNs > 0 {
		b.In("workload", m.Spec.WorkNs)
	}
	if m.Spec.Nodes > 1 {
		b.In("nodes", m.Spec.Nodes)
	}
	b.Out("exectime", fmt.Sprintf("%.6f", m.Seconds.Mean)).
		Out("exectime_stddev", fmt.Sprintf("%.6f", m.Seconds.Std)).
		Out("nb_runs", m.Seconds.N).
		Out("ops_per_sec_per_core", fmt.Sprintf("%.1f", m.OpsPerSecPerCore)).
		Out("nb_operations", m.CounterOps).
		Out("nb_vertices", m.Vertices).
		Out("nb_steals", m.Steals).
		Out("nb_local_steals", m.LocalSteals).
		Out("nb_remote_steals", m.RemoteSteals).
		Out("nb_incounter_nodes", m.IncounterNodes).
		Out("killed", 0)
	if strings.HasPrefix(m.Spec.Algo, "adaptive") {
		b.Out("nb_promotions", m.Promotions).
			Out("nb_demotions", m.Demotions).
			Out("nb_counter_flushes", m.CounterFlushes).
			Out("nb_counter_local_incs", m.CounterLocalIncs)
	}
	if m.Caveat != "" {
		b.Out("caveat", m.Caveat)
	}
	if m.Spec.Bench == "burst" {
		b.In("maxproc", m.Spec.MaxWorkers).
			Out("nb_peak_workers", m.PeakWorkers).
			Out("nb_steady_workers", m.SteadyWorkers).
			Out("nb_spawned_workers", m.Spawned).
			Out("nb_retired_workers", m.Retired)
	}
	return b
}

// Run executes one Spec: a warmup run followed by Spec.Runs measured
// runs on a fresh runtime.
func Run(spec Spec) (Measurement, error) {
	if spec.Procs < 1 {
		spec.Procs = 1
	}
	if spec.Runs < 1 {
		spec.Runs = 1
	}
	if spec.N < 1 {
		spec.N = 1
	}
	threshold := spec.Threshold
	if threshold == 0 {
		// The ceiling, like nested.New: the contention-relevant p of an
		// elastic pool is how many workers can actually collide.
		threshold = nested.DefaultThreshold(max(spec.Procs, spec.MaxWorkers))
	}

	if spec.Bench == "snzi-stress" {
		return runStress(spec)
	}

	alg, err := counter.Parse(spec.Algo, threshold)
	if err != nil {
		return Measurement{}, err
	}
	if spec.Variant != 0 {
		d, ok := alg.(counter.Dynamic)
		if !ok {
			return Measurement{}, fmt.Errorf("harness: variant bits require algo dyn, got %q", spec.Algo)
		}
		switch spec.Variant {
		case 1:
			d.Variant = core.VariantNaiveDecOrder
		case 2:
			d.Variant = core.VariantArriveAtHandle
		default:
			d.Variant = core.VariantNaiveDecOrder | core.VariantArriveAtHandle
		}
		alg = d
	}

	// The burst benchmark keeps its idle gaps below the retirement
	// threshold, so an elastic pool stays warm across the storms of one
	// run but sheds its extra workers between measurement points.
	const burstRetireAfter = 25 * time.Millisecond
	// Spec.Nodes > 1 spreads the worker slots over a synthetic
	// multi-node topology (the fanin-numa real-scheduler study); the
	// default is the explicit flat topology, so the measurement is not
	// at the mercy of what the runner's sysfs happens to expose.
	slots := max(spec.Procs, spec.MaxWorkers)
	topo := topology.Flat(slots)
	if spec.Nodes > 1 {
		topo = topology.Synthetic(spec.Nodes, (slots+spec.Nodes-1)/spec.Nodes)
	}
	rt := nested.New(nested.Config{
		Workers: spec.Procs, MaxWorkers: spec.MaxWorkers,
		RetireAfter: burstRetireAfter,
		Algorithm:   alg, Seed: spec.Seed,
		Topology: topo,
	})
	defer rt.Close()

	one := func() workload.Result {
		switch spec.Bench {
		case "fanin", "fanin-numa":
			// fanin-numa is plain fanin measured under the spec's
			// topology: the figure's axis is Nodes, not the workload.
			return workload.Fanin(rt, spec.N)
		case "fanin-work":
			return workload.FaninWork(rt, spec.N, spec.WorkNs)
		case "indegree2":
			return workload.Indegree2(rt, spec.N)
		case "phase-shift":
			return workload.PhaseShift(rt, spec.N)
		case "zipf":
			return workload.ZipfHotKey(rt, spec.N, zipfKeys, zipfSkew)
		case "burst":
			ceiling := spec.MaxWorkers
			if ceiling < spec.Procs {
				ceiling = spec.Procs
			}
			return workload.Burst(rt, workload.BurstConfig{
				Leaves: spec.N, Storms: 4, Lanes: 2 * ceiling,
				Gap: 2 * time.Millisecond,
			})
		default:
			panic(fmt.Sprintf("harness: unknown bench %q", spec.Bench))
		}
	}
	switch spec.Bench {
	case "fanin", "fanin-work", "fanin-numa", "indegree2", "phase-shift", "zipf", "burst":
	default:
		return Measurement{}, fmt.Errorf("harness: unknown bench %q", spec.Bench)
	}

	one() // warmup
	sc := rt.Scheduler()
	st0 := sc.Stats()
	var prom0, dem0 uint64
	if pr, ok := alg.(counter.PromotionReporter); ok {
		prom0 = pr.Promotions()
	}
	if dr, ok := alg.(counter.DemotionReporter); ok {
		dem0 = dr.Demotions()
	}
	times := make([]float64, 0, spec.Runs)
	var last workload.Result
	peak := 0
	for i := 0; i < spec.Runs; i++ {
		last = one()
		times = append(times, last.Elapsed.Seconds())
		if last.Workers > peak {
			peak = last.Workers
		}
	}
	sum := stats.Summarize(times)
	// Per-core throughput divides by the workers that were actually
	// available: the fixed pool's size, or the elastic pool's observed
	// peak.
	cores := max(spec.Procs, peak)
	st := sc.Stats()
	m := Measurement{
		Spec:             spec,
		Seconds:          sum,
		CounterOps:       last.CounterOps,
		Vertices:         last.Vertices,
		IncounterNodes:   last.FinalNodes,
		Steals:           st.Steals - st0.Steals,
		LocalSteals:      st.LocalSteals - st0.LocalSteals,
		RemoteSteals:     st.RemoteSteals - st0.RemoteSteals,
		CounterFlushes:   st.CounterFlushes - st0.CounterFlushes,
		CounterLocalIncs: st.CounterLocalIncs - st0.CounterLocalIncs,
		OpsPerSecPerCore: float64(last.CounterOps) / sum.Mean / float64(cores),
		PeakWorkers:      peak,
		Caveat:           hostCaveat(),
	}
	if pr, ok := alg.(counter.PromotionReporter); ok {
		// Delta against the warmup, like Steals: the stats sink is
		// shared across every run on this runtime.
		m.Promotions = pr.Promotions() - prom0
	}
	if dr, ok := alg.(counter.DemotionReporter); ok {
		m.Demotions = dr.Demotions() - dem0
	}
	if spec.Bench == "burst" {
		// Resident worker count once the load is gone: give the pool a
		// few retirement periods to quiesce, then read what is left —
		// the floor for a healthy elastic pool, the full size for a
		// fixed one.
		deadline := time.Now().Add(10 * burstRetireAfter)
		for sc.NumWorkers() > sc.MinWorkers() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		m.SteadyWorkers = sc.NumWorkers()
		// Cumulative, not a delta against the warmup: a warm elastic
		// pool spawns during the warmup and then stays grown through
		// the measured runs, so the delta would hide the movement the
		// figure exists to show.
		m.Spawned = sc.SpawnedWorkers()
		m.Retired = sc.RetiredWorkers()
	}
	m.Spec.Threshold = threshold
	return m, nil
}

func runStress(spec Spec) (Measurement, error) {
	depth := -1
	if spec.Algo != "fetchadd" {
		var d int
		if _, err := fmt.Sscanf(spec.Algo, "snzi-%d", &d); err != nil {
			return Measurement{}, fmt.Errorf("harness: snzi-stress algo must be fetchadd or snzi-D, got %q", spec.Algo)
		}
		depth = d
	}
	workload.SnziStress(spec.Procs, depth, int(spec.N)/8) // warmup
	times := make([]float64, 0, spec.Runs)
	var last workload.Result
	for i := 0; i < spec.Runs; i++ {
		last = workload.SnziStress(spec.Procs, depth, int(spec.N))
		times = append(times, last.Elapsed.Seconds())
	}
	sum := stats.Summarize(times)
	return Measurement{
		Spec:             spec,
		Seconds:          sum,
		CounterOps:       last.CounterOps,
		OpsPerSecPerCore: float64(last.CounterOps) / sum.Mean / float64(spec.Procs),
		Caveat:           hostCaveat(),
	}, nil
}

// hostCaveat returns the measurement-environment caveat for the
// current host, or "" when there is none. The GOMAXPROCS < 2 case is
// the EXPERIMENTS.md "measured on 1 hardware thread" caveat; putting
// it in every artifact record means benchgate logs and artifact
// readers see it next to the numbers instead of having to know the
// prose.
func hostCaveat() string {
	if runtime.GOMAXPROCS(0) < 2 {
		return "measured on 1 hardware thread: multi-worker cells are oversubscribed (interleaving, not parallel contention)"
	}
	return ""
}

// ProcsSweep returns the list of worker counts to sweep: 1..max with
// at most 8 distinct points (all of 1..max when max ≤ 8).
func ProcsSweep(max int) []int {
	if max < 1 {
		max = runtime.GOMAXPROCS(0)
	}
	if max <= 8 {
		out := make([]int, max)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	out := []int{1}
	step := max / 7
	for p := step; p < max; p += step {
		out = append(out, p)
	}
	return append(out, max)
}

// Report is the output of one figure driver: formatted tables plus the
// raw measurements behind them.
type Report struct {
	Figure       string
	Title        string
	Tables       []*stats.Table
	Measurements []Measurement
	Notes        []string
}

// Render formats the full report as text.
func (r *Report) Render() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.Figure, r.Title)
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	for _, t := range r.Tables {
		out += "\n" + t.Render()
	}
	return out
}

// Artifact renders every measurement in the artifact format.
func (r *Report) Artifact() *report.Collection {
	var c report.Collection
	for _, m := range r.Measurements {
		c.Add(m.Block())
	}
	return &c
}
