// Package harness drives the paper's experiments: it builds each
// kernel measurement cell from a Spec (NewCell — the one constructor
// both the figure drivers and the root benchmark cells use), repeats
// and averages it (Run), and assembles per-figure reports (one table
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
	// Variant holds in-counter ablation bits for algo dyn: 1 reverses
	// the decrement order (A2), 2 arrives at the handle node (A3), 4
	// prunes quiesced subtrees (§B space management).
	Variant uint8
	Runs    int // measured repetitions (≥1)
	Seed    uint64
}

// Measurement is the averaged result of one kernel Spec.
type Measurement struct {
	Spec             Spec
	Seconds          stats.Summary // wall-clock seconds per run
	OpsPerSecPerCore float64
	CounterOps       uint64
	Vertices         int64
	IncounterNodes   int64
	// The cell's event counts across the measured runs (see Tally).
	Tally
	// Caveat flags measurement-environment limitations (currently: the
	// host exposed fewer than 2 hardware threads, so multi-worker cells
	// measure oversubscribed interleaving, not parallel contention). It
	// is emitted into the artifact record so readers of the JSON see
	// what EXPERIMENTS.md says in prose.
	Caveat string
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
}

func (m Measurement) String() string {
	return fmt.Sprintf("%s/%s p=%d n=%d: %.3gs ops/s/core=%.3g",
		m.Spec.Bench, m.Spec.Algo, m.Spec.Procs, m.Spec.N, m.Seconds.Mean, m.OpsPerSecPerCore)
}

// Block renders the measurement as an artifact-format record.
func (m Measurement) Block() *report.Block {
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
	withCaveat(b, m.Caveat)
	if m.Spec.Bench == "burst" {
		b.In("maxproc", m.Spec.MaxWorkers).
			Out("nb_peak_workers", m.PeakWorkers).
			Out("nb_steady_workers", m.SteadyWorkers).
			Out("nb_spawned_workers", m.Spawned).
			Out("nb_retired_workers", m.Retired)
	}
	return b
}

// The burst benchmark keeps its idle gaps below the retirement
// threshold, so an elastic pool stays warm across the storms of one
// run but sheds its extra workers between measurement points.
const burstRetireAfter = 25 * time.Millisecond

// Cell is one kernel measurement cell: the runtime a Spec names and
// the kernel that runs one repetition on it. Run measures a cell for
// a figure; the root benchmarks run the same cells under b.N.
type Cell struct {
	// Spec is the normalized spec: Procs, Runs and N at least 1, and
	// Threshold filled for every spec that builds a counter.
	Spec Spec
	// RT is the cell's runtime: the explicit flat topology (synthetic
	// when Spec.Nodes > 1), so a cell keeps one meaning whatever the
	// host's sysfs exposes. It is nil for snzi-stress, which runs
	// without a dag runtime.
	RT     *nested.Runtime
	alg    counter.Algorithm
	kernel func() workload.Result
}

// NewCell validates spec and builds its cell; Close releases it.
func NewCell(spec Spec) (*Cell, error) {
	spec.Procs, spec.Runs, spec.N = max(spec.Procs, 1), max(spec.Runs, 1), max(spec.N, 1)
	workload.CalibrateWork()
	c := &Cell{Spec: spec}
	if spec.Bench == "snzi-stress" {
		depth := -1
		if spec.Algo != "fetchadd" {
			if _, err := fmt.Sscanf(spec.Algo, "snzi-%d", &depth); err != nil {
				return nil, fmt.Errorf("harness: snzi-stress algo must be fetchadd or snzi-D, got %q", spec.Algo)
			}
		}
		c.kernel = func() workload.Result { return workload.SnziStress(spec.Procs, depth, int(spec.N)) }
		return c, nil
	}
	// The ceiling, like nested.New: the contention-relevant p of an
	// elastic pool is how many workers can actually collide.
	slots := max(spec.Procs, spec.MaxWorkers)
	if spec.Threshold == 0 {
		c.Spec.Threshold = nested.DefaultThreshold(slots)
	}
	alg, err := counter.Parse(spec.Algo, c.Spec.Threshold)
	if err != nil {
		return nil, err
	}
	if spec.Variant != 0 {
		d, ok := alg.(counter.Dynamic)
		if !ok {
			return nil, fmt.Errorf("harness: variant bits require algo dyn, got %q", spec.Algo)
		}
		if spec.Variant&1 != 0 {
			d.Variant |= core.VariantNaiveDecOrder
		}
		if spec.Variant&2 != 0 {
			d.Variant |= core.VariantArriveAtHandle
		}
		d.Prune = spec.Variant&4 != 0
		alg = d
	}
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
	c.RT, c.alg = rt, alg
	switch spec.Bench {
	case "fanin", "fanin-numa", "fanin-work":
		// fanin-numa is plain fanin measured under the spec's
		// topology: the figure's axis is Nodes, not the workload.
		c.kernel = func() workload.Result { return workload.FaninWork(rt, spec.N, spec.WorkNs) }
	case "indegree2":
		c.kernel = func() workload.Result { return workload.Indegree2(rt, spec.N) }
	case "phase-shift":
		c.kernel = func() workload.Result { return workload.PhaseShift(rt, spec.N) }
	case "zipf":
		c.kernel = func() workload.Result { return workload.ZipfHotKey(rt, spec.N, zipfKeys, zipfSkew) }
	case "burst":
		cfg := workload.BurstConfig{Leaves: spec.N, Storms: 4, Lanes: 2 * slots, Gap: 2 * time.Millisecond}
		c.kernel = func() workload.Result { return workload.Burst(rt, cfg) }
	default:
		rt.Close()
		return nil, fmt.Errorf("harness: unknown bench %q", spec.Bench)
	}
	return c, nil
}

// Run executes one repetition of the cell's kernel.
func (c *Cell) Run() workload.Result { return c.kernel() }

// Close releases the cell's runtime.
func (c *Cell) Close() {
	if c.RT != nil {
		c.RT.Close()
	}
}

// Tally is a reading of a cell's cumulative event counts; two
// readings bracket a measurement (see Sub). Steals split by victim
// locality (on a flat topology every steal is local). Promotions is
// the "which algorithm did adaptive settle on" statistic; the batched
// frontend's ledger (CounterFlushes, CounterLocalIncs) and Demotions
// stay 0 without batching.
type Tally struct {
	Steals, LocalSteals, RemoteSteals uint64
	CounterFlushes, CounterLocalIncs  uint64
	Promotions, Demotions             uint64
}

// Tally reads the cell's counts now (all 0 for snzi-stress).
func (c *Cell) Tally() Tally {
	if c.RT == nil {
		return Tally{}
	}
	st := c.RT.Scheduler().Stats()
	t := Tally{st.Steals, st.LocalSteals, st.RemoteSteals, st.CounterFlushes, st.CounterLocalIncs, 0, 0}
	if pr, ok := c.alg.(counter.PromotionReporter); ok {
		t.Promotions = pr.Promotions()
	}
	if dr, ok := c.alg.(counter.DemotionReporter); ok {
		t.Demotions = dr.Demotions()
	}
	return t
}

// Sub returns the counts accumulated between reading u and reading t.
func (t Tally) Sub(u Tally) Tally {
	return Tally{t.Steals - u.Steals, t.LocalSteals - u.LocalSteals, t.RemoteSteals - u.RemoteSteals,
		t.CounterFlushes - u.CounterFlushes, t.CounterLocalIncs - u.CounterLocalIncs,
		t.Promotions - u.Promotions, t.Demotions - u.Demotions}
}

// Run executes one Spec: a warmup run followed by Spec.Runs measured
// runs on a fresh cell.
func Run(spec Spec) (Measurement, error) {
	c, err := NewCell(spec)
	if err != nil {
		return Measurement{}, err
	}
	defer c.Close()
	spec = c.Spec
	c.Run() // warmup
	// Deltas against the warmup: the stats sinks are shared across
	// every run on this runtime.
	t0 := c.Tally()
	times := make([]float64, 0, spec.Runs)
	var last workload.Result
	peak := 0
	for i := 0; i < spec.Runs; i++ {
		last = c.Run()
		times = append(times, last.Elapsed.Seconds())
		peak = max(peak, last.Workers)
	}
	sum := stats.Summarize(times)
	m := Measurement{
		Spec:           spec,
		Seconds:        sum,
		CounterOps:     last.CounterOps,
		Vertices:       last.Vertices,
		IncounterNodes: last.FinalNodes,
		Tally:          c.Tally().Sub(t0),
		// Per-core throughput divides by the workers that were
		// actually available: the fixed pool's size, or the elastic
		// pool's observed peak.
		OpsPerSecPerCore: float64(last.CounterOps) / sum.Mean / float64(max(spec.Procs, peak)),
		PeakWorkers:      peak,
		Caveat:           hostCaveat(),
	}
	if spec.Bench == "burst" {
		// Resident worker count once the load is gone: give the pool a
		// few retirement periods to quiesce, then read what is left —
		// the floor for a healthy elastic pool, the full size for a
		// fixed one.
		sc := c.RT.Scheduler()
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
	return m, nil
}

// hostCaveat returns the measurement-environment caveat for the
// current host, or "" when there is none. The GOMAXPROCS < 2 case is
// the EXPERIMENTS.md "measured on 1 hardware thread" caveat; putting
// it in every artifact record means artifact readers see it next to
// the numbers instead of having to know the prose.
func hostCaveat() string {
	if runtime.GOMAXPROCS(0) < 2 {
		return "measured on 1 hardware thread: multi-worker cells are oversubscribed (interleaving, not parallel contention)"
	}
	return ""
}

// withCaveat appends a non-empty caveat to an artifact record.
func withCaveat(b *report.Block, caveat string) *report.Block {
	if caveat != "" {
		b.Out("caveat", caveat)
	}
	return b
}

// ProcsSweep returns the list of worker counts to sweep: strictly
// increasing from 1 to hi with at most 8 points (all of 1..hi when
// hi ≤ 8).
func ProcsSweep(hi int) []int {
	if hi < 1 {
		hi = runtime.GOMAXPROCS(0)
	}
	// Past 8, a step of ⌈hi/7⌉ leaves at most 6 points strictly
	// between 1 and hi.
	step := 1
	if hi > 8 {
		step = (hi + 6) / 7
	}
	out := []int{1}
	for p := max(step, 2); p < hi; p += step {
		out = append(out, p)
	}
	if hi > 1 {
		out = append(out, hi)
	}
	return out
}

// Report is the output of one figure driver: formatted tables plus
// the artifact records of the points behind them.
type Report struct {
	Figure string
	Title  string
	Tables []*stats.Table
	Blocks []*report.Block
	Notes  []string
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

// Artifact renders every record in the artifact format.
func (r *Report) Artifact() *report.Collection {
	return &report.Collection{Blocks: r.Blocks}
}
