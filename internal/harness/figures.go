package harness

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stallsim"
	"repro/internal/stats"
)

// Options tunes the per-figure experiment drivers. The zero value
// gives the full (host-scaled) defaults; Quick shrinks everything for
// use inside `go test -bench` and smoke tests.
type Options struct {
	N        uint64 // base problem size; 0 → per-figure default
	MaxProcs int    // top of the cores sweep; 0 → GOMAXPROCS
	Runs     int    // measured repetitions per point; 0 → 3
	Quick    bool
	Progress func(string) // optional progress callback
}

func (o Options) fill() Options {
	if o.MaxProcs <= 0 {
		o.MaxProcs = runtime.GOMAXPROCS(0)
	}
	if o.Runs <= 0 {
		o.Runs = 3
		if o.Quick {
			o.Runs = 1
		}
	}
	return o
}

func (o Options) n(def uint64) uint64 {
	if o.N > 0 {
		return o.N
	}
	if o.Quick {
		return def / 16
	}
	return def
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// defaultN is the full problem size for the native fanin/indegree2
// figures. The paper uses 8M on a 40-core machine; 1M keeps a full
// multi-algorithm sweep tractable on small hosts while still creating
// millions of counter operations per point (shape-preserving; override
// with Options.N for a paper-scale run).
const defaultN = 1 << 20

// Figures maps figure identifiers to their drivers.
func Figures() map[string]func(Options) (*Report, error) {
	return map[string]func(Options) (*Report, error){
		"8":         Fig8,
		"9":         Fig9,
		"10":        Fig10,
		"11":        Fig11,
		"12":        Fig12,
		"13":        Fig13,
		"14":        Fig14,
		"15":        Fig15,
		"phase":     PhaseShift,
		"burst":     Burst,
		"serve":     Serve,
		"sink":      SinkCoalescing,
		"chaos":     Chaos,
		"sim":       Sim,
		"zipf":      Zipf,
		"stalls":    StallModel,
		"ablations": Ablations,
	}
}

// FigureOrder lists the drivers in presentation order.
func FigureOrder() []string {
	return []string{"8", "9", "10", "11", "12", "13", "14", "15", "phase", "burst", "serve", "sink", "chaos", "sim", "zipf", "stalls", "ablations"}
}

// sweep fills one table row by row: cell(r, c) measures column c of
// row r and returns the entries it contributes after the row label.
// Per-cell extras (a second table, a trailing row) ride in cell.
func sweep(rep *Report, tbl *stats.Table, rows []string, cols int, cell func(r, c int) ([]interface{}, error)) error {
	for r, label := range rows {
		row := []interface{}{label}
		for c := 0; c < cols; c++ {
			entries, err := cell(r, c)
			if err != nil {
				return err
			}
			row = append(row, entries...)
		}
		tbl.AddRow(row...)
	}
	rep.Tables = append(rep.Tables, tbl)
	return nil
}

// measure runs spec at the options' repetitions (seed 1) and records
// its artifact block in rep.
func (o Options) measure(rep *Report, spec Spec) (Measurement, error) {
	spec.Runs, spec.Seed = o.Runs, 1
	o.progress("%s %s p=%d n=%d", spec.Bench, spec.Algo, spec.Procs, spec.N)
	m, err := Run(spec)
	if err == nil {
		rep.Blocks = append(rep.Blocks, m.Block())
	}
	return m, err
}

// coresTable measures ops/sec/core for each algorithm (rows) at each
// procs value (columns); each, when non-nil, sees every measurement.
func (o Options) coresTable(rep *Report, title string, spec Spec, algos []string, procs []int, each func(Measurement)) error {
	tbl := stats.NewTable(title, append([]string{"algo"}, labels("p=%d", procs)...)...)
	return sweep(rep, tbl, algos, len(procs), func(r, c int) ([]interface{}, error) {
		spec.Algo, spec.Procs = algos[r], procs[c]
		m, err := o.measure(rep, spec)
		if err == nil && each != nil {
			each(m)
		}
		return []interface{}{m.OpsPerSecPerCore}, err
	})
}

// labels formats each element of xs with format.
func labels[T any](format string, xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}

// Fig8 reproduces Figure 8: fanin throughput per core across counter
// algorithms and core counts.
func Fig8(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Figure 8", Title: "Fanin benchmark, varying cores and counter algorithm"}
	depths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if o.Quick {
		depths = []int{1, 4, 8}
	}
	algos := append(append([]string{"fetchadd"}, labels("snzi-%d", depths)...), "dyn", "adaptive")
	n := o.n(defaultN)
	if err := o.coresTable(rep, fmt.Sprintf("fanin n=%d: ops/sec/core by cores", n),
		Spec{Bench: "fanin", N: n}, algos, ProcsSweep(o.MaxProcs), nil); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		"expected shape: fetchadd best at p=1, worst for p≥2; dyn best for p≥2; fixed snzi improves with depth then plateaus",
		"adaptive tracks fetchadd at p=1 and promotes toward dyn as contention grows")
	return rep, nil
}

// PhaseShift measures the contention phase-shift kernel (not a figure
// of the paper; see internal/workload.PhaseShift): one finish counter
// living through a low-contention prologue and then a fan-in storm,
// across the static algorithms and the adaptive counter. The last
// row reports how many counters the adaptive algorithm promoted —
// which algorithm it "settled on".
func PhaseShift(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Phase shift", Title: "Low-contention prologue into fan-in storm, one finish counter"}
	n := o.n(defaultN / 4)
	// Promotions get their own per-proc row (not a sweep total): the
	// signal the figure exists to show is *which core counts* push the
	// adaptive counter off the cell.
	promRow := []interface{}{"adaptive promotions"}
	err := o.coresTable(rep, fmt.Sprintf("phase-shift n=%d: ops/sec/core by cores", n),
		Spec{Bench: "phase-shift", N: n}, []string{"fetchadd", "dyn", "adaptive"},
		ProcsSweep(o.MaxProcs), func(m Measurement) {
			if m.Spec.Algo == "adaptive" {
				promRow = append(promRow, fmt.Sprintf("%d", m.Promotions))
			}
		})
	if err != nil {
		return nil, err
	}
	rep.Tables[len(rep.Tables)-1].AddRow(promRow...)
	rep.Notes = append(rep.Notes,
		"expected shape: fetchadd wins the prologue, dyn the storm; adaptive starts as the cell and promotes when the storm hits (promotions > 0 at contended core counts)")
	return rep, nil
}

// Burst measures the bursty service kernel (not a figure of the
// paper; see internal/workload.Burst): alternating idle gaps and
// concurrent fan-out storms, across three pool configurations — fixed
// at the floor (cheap but slow in the storms), fixed at the ceiling
// (fast but permanently resident), and elastic (floor 1, growing to
// the ceiling under the storms' injector backlog). The workers columns
// show what the figure exists to show: the elastic pool reaches the
// fixed-max pool's peak during storms yet quiesces back to one
// resident worker, with the spawn/retire counters recording the
// movement.
func Burst(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Burst", Title: "Bursty fan-out storms: fixed-min vs fixed-max vs elastic pool"}
	n := o.n(defaultN / 16)
	ceiling := o.MaxProcs
	pools := []Spec{{Procs: 1}, {Procs: ceiling}, {Procs: 1, MaxWorkers: ceiling}}
	names := []string{"fixed-min", fmt.Sprintf("fixed-max(%d)", ceiling), fmt.Sprintf("elastic(1..%d)", ceiling)}
	tbl := stats.NewTable(fmt.Sprintf("burst n=%d/lane: throughput and worker residency by pool", n),
		"pool", "ops/sec", "peak workers", "steady workers", "spawned", "retired")
	err := sweep(rep, tbl, names, 1, func(r, _ int) ([]interface{}, error) {
		spec := pools[r]
		spec.Bench, spec.Algo, spec.N = "burst", "adaptive", n
		m, err := o.measure(rep, spec)
		return []interface{}{m.OpsPerSecPerCore * float64(max(m.PeakWorkers, spec.Procs)),
			m.PeakWorkers, m.SteadyWorkers, m.Spawned, m.Retired}, err
	})
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		"expected shape: elastic throughput within ~10% of fixed-max, steady workers back at 1 (fixed-max stays resident at its full size through every idle gap)")
	return rep, nil
}

// Fig9 reproduces Figure 9: size invariance of the in-counter —
// throughput per core across input sizes n at several core counts.
func Fig9(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Figure 9", Title: "Fanin with the in-counter, varying n (size invariance)"}
	base := o.n(defaultN)
	ns := []uint64{base / 16, base / 8, base / 4, base / 2, base}
	procs := distinct([]int{1, o.MaxProcs/2 + 1, o.MaxProcs})
	tbl := stats.NewTable("fanin dyn: ops/sec/core by n (cores in columns)",
		append([]string{"n"}, labels("p=%d", procs)...)...)
	err := sweep(rep, tbl, labels("%d", ns), len(procs), func(r, c int) ([]interface{}, error) {
		m, err := o.measure(rep, Spec{Bench: "fanin", Algo: "dyn", Procs: procs[c], N: ns[r]})
		return []interface{}{m.OpsPerSecPerCore}, err
	})
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, "expected shape: throughput/core roughly flat in n once n provides enough parallelism")
	return rep, nil
}

// Fig10 reproduces Figure 10: the indegree2 benchmark across
// algorithms — the overhead of per-finish-block counter allocation.
func Fig10(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Figure 10", Title: "Indegree-2 benchmark, varying cores and counter algorithm"}
	n := o.n(defaultN)
	if err := o.coresTable(rep, fmt.Sprintf("indegree2 n=%d: ops/sec/core by cores", n), Spec{Bench: "indegree2", N: n},
		[]string{"fetchadd", "snzi-2", "snzi-4", "dyn"}, ProcsSweep(o.MaxProcs), nil); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		"expected shape: fetchadd best (each finish counter sees only 2 ops); dyn within ~2x; larger fixed trees pay allocation per finish block")
	return rep, nil
}

// Fig11 reproduces Figure 11: the threshold (grow probability) study
// at the maximum core count.
func Fig11(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Figure 11", Title: "Threshold study: p = 1/threshold at max cores"}
	thresholds := []uint64{10, 50, 100, 500, 1000, 5000, 10000, 50000, 1000000}
	if o.Quick {
		thresholds = []uint64{10, 100, 1000, 100000}
	}
	n := o.n(defaultN)
	tbl := stats.NewTable(fmt.Sprintf("fanin dyn n=%d p=%d: ops/sec/core by threshold", n, o.MaxProcs),
		"threshold", "ops/sec/core", "incounter-nodes")
	err := sweep(rep, tbl, labels("%d", thresholds), 1, func(r, _ int) ([]interface{}, error) {
		m, err := o.measure(rep, Spec{Bench: "fanin", Algo: "dyn", Procs: o.MaxProcs, N: n, Threshold: thresholds[r]})
		return []interface{}{m.OpsPerSecPerCore, m.IncounterNodes}, err
	})
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, "expected shape: a wide plateau of good thresholds (~50..1000); tree size falls as threshold grows")
	return rep, nil
}

// Fig12 reproduces the SNZI reproduction study (appendix C.1, Figure
// 12; originally Figure 10 of the SNZI paper): raw arrive/depart
// throughput without a dag runtime.
func Fig12(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Figure 12", Title: "SNZI reproduction study: raw arrive/depart stress"}
	n := o.n(1 << 20) // ops per thread
	algos := []string{"fetchadd", "snzi-1", "snzi-2", "snzi-3", "snzi-4", "snzi-5"}
	if o.Quick {
		algos = []string{"fetchadd", "snzi-2", "snzi-5"}
	}
	if err := o.coresTable(rep, fmt.Sprintf("snzi-stress ops/thread=%d: ops/sec/core by cores", n),
		Spec{Bench: "snzi-stress", N: n}, algos, ProcsSweep(o.MaxProcs), nil); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, "expected shape: fetchadd degrades past a few cores; deeper trees sustain throughput")
	return rep, nil
}

// Fig13 reproduces the NUMA study (appendix C.2, Figure 13) on the
// real scheduler: plain fanin measured under a flat topology and
// under synthetic multi-node topologies, so the cells exercise the
// actual two-phase (local-then-remote) victim order and per-node
// vertex pools rather than a timing proxy. Every cell pins its counter
// algorithm explicitly — nothing follows the runtime default. The
// steal-locality table shows the mechanism: under multi-node
// topologies most steals resolve in the local phase. The paper's
// measured claim survives as a null result on the algorithm axis: the
// topology must not change the counter-algorithm ordering.
func Fig13(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Figure 13", Title: "NUMA topology study (real scheduler, flat vs synthetic nodes)"}
	n := o.n(defaultN)
	// Node counts beyond the worker count would build all-singleton
	// layouts indistinguishable from the 2-node cell (every victim
	// remote), so the axis is clamped: flat, 2-node always (the
	// minimal multi-node point, meaningful from p=2), 4-node only when
	// there are enough workers to give nodes a local peer structure
	// distinct from 2-node.
	nodeAxis := []int{1, 2}
	if !o.Quick && o.MaxProcs >= 4 {
		nodeAxis = append(nodeAxis, 4)
	}
	topos := topoNames(nodeAxis)
	tbl := stats.NewTable(fmt.Sprintf("fanin n=%d p=%d: ops/sec/core by topology", n, o.MaxProcs),
		append([]string{"algo"}, topos...)...)
	locTbl := stats.NewTable("steal locality (same runs)",
		"algo/topology", "local", "remote", "local share")
	algos := []string{"fetchadd", "snzi-4", "dyn"}
	err := sweep(rep, tbl, algos, len(nodeAxis), func(r, c int) ([]interface{}, error) {
		m, err := o.measure(rep, Spec{Bench: "fanin-numa", Algo: algos[r], Procs: o.MaxProcs, N: n, Nodes: nodeAxis[c]})
		locTbl.AddRow(algos[r]+"/"+topos[c], m.LocalSteals, m.RemoteSteals,
			localShare(m.LocalSteals, m.RemoteSteals))
		return []interface{}{m.OpsPerSecPerCore}, err
	})
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, locTbl)
	rep.Notes = append(rep.Notes,
		"expected: a null result on the algorithm axis — the topology does not change the counter-algorithm ordering",
		"expected mechanism: under multi-node topologies the local phase absorbs most steals (remote is the fallback)")
	return rep, nil
}

// topoNames names each node count of a topology axis: flat, or
// N-node.
func topoNames(axis []int) []string {
	out := make([]string, len(axis))
	for i, nodes := range axis {
		out[i] = "flat"
		if nodes > 1 {
			out[i] = fmt.Sprintf("%d-node", nodes)
		}
	}
	return out
}

func localShare(local, remote uint64) string {
	if local+remote == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(local)/float64(local+remote))
}

// Fig14 reproduces the granularity study (appendix C.3, Figure 14):
// speedup of each algorithm over the fetch-and-add cell as per-task
// dummy work grows.
func Fig14(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Figure 14", Title: "Granularity study: speedup vs fetch-and-add by per-task work"}
	works := []int{1, 10, 100, 1000, 10000, 100000}
	if o.Quick {
		works = []int{1, 100, 10000}
	}
	n := o.n(defaultN / 4)
	algos := []string{"fetchadd", "snzi-9", "dyn"}
	if o.Quick {
		algos = []string{"fetchadd", "snzi-4", "dyn"}
	}
	tbl := stats.NewTable(fmt.Sprintf("fanin-work n=%d p=%d: speedup vs fetchadd (same work)", n, o.MaxProcs),
		append([]string{"work(ns)"}, algos...)...)
	base := 0.0 // the row's fetchadd time: algos[0] is measured first
	err := sweep(rep, tbl, labels("%d", works), len(algos), func(r, c int) ([]interface{}, error) {
		m, err := o.measure(rep, Spec{Bench: "fanin-work", Algo: algos[c], Procs: o.MaxProcs, N: n, WorkNs: works[r]})
		if c == 0 {
			base = m.Seconds.Mean
		}
		return []interface{}{base / m.Seconds.Mean}, err
	})
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, "expected shape: gap large at fine grain, converging toward 1 as per-task work grows")
	return rep, nil
}

// Fig15 reproduces Figures 15a–15e: speedup over fetch-and-add at one
// core, sweeping cores, one table per dummy-work level.
func Fig15(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Figure 15", Title: "Speedup vs fetchadd@1core, by cores, per work level"}
	works := []int{1, 10, 100, 1000, 10000}
	if o.Quick {
		works = []int{1, 1000}
	}
	n := o.n(defaultN / 4)
	algos := []string{"fetchadd", "snzi-9", "dyn"}
	if o.Quick {
		algos = []string{"fetchadd", "dyn"}
	}
	procs := ProcsSweep(o.MaxProcs)
	for _, w := range works {
		spec := Spec{Bench: "fanin-work", Algo: "fetchadd", Procs: 1, N: n, WorkNs: w}
		baseM, err := o.measure(rep, spec)
		if err != nil {
			return nil, err
		}
		tbl := stats.NewTable(fmt.Sprintf("work=%dns: speedup vs fetchadd@1core", w),
			append([]string{"algo"}, labels("p=%d", procs)...)...)
		err = sweep(rep, tbl, algos, len(procs), func(r, c int) ([]interface{}, error) {
			spec.Algo, spec.Procs = algos[r], procs[c]
			m, err := o.measure(rep, spec)
			return []interface{}{baseM.Seconds.Mean / m.Seconds.Mean}, err
		})
		if err != nil {
			return nil, err
		}
	}
	rep.Notes = append(rep.Notes, "expected shape: counter choice matters more at higher core counts and finer grain")
	return rep, nil
}

// StallModel runs the contention experiment (DESIGN.md T1): stalls per
// counter operation in the Fich et al. stall model, sweeping simulated
// processor counts far beyond the host's cores — the direct empirical
// check of Theorems 4.8/4.9.
func StallModel(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Stall model", Title: "Contention (stalls/op) in the shared-memory model, simulated cores"}
	ps := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	if o.Quick {
		ps = []int{1, 4, 16, 64}
	}
	n := o.n(1 << 12)
	algs := []stallsim.SimAlgorithm{
		stallsim.FetchAdd{},
		stallsim.FixedSNZI{Depth: 3},
		stallsim.FixedSNZI{Depth: 6},
		stallsim.Dynamic{Threshold: 8},
		stallsim.Dynamic{Threshold: 1},
	}
	names := make([]string, len(algs))
	for i, alg := range algs {
		names[i] = alg.Name()
		if d, ok := alg.(stallsim.Dynamic); ok {
			names[i] += fmt.Sprintf("(th=%d)", d.Threshold)
		}
	}
	tbl := stats.NewTable(fmt.Sprintf("fanin in the stall model, n=%d: stalls per counter op", n),
		append([]string{"algo"}, labels("P=%d", ps)...)...)
	steps := stats.NewTable("steps per counter op (same runs)",
		append([]string{"algo"}, labels("P=%d", ps)...)...)
	maxArr := 0
	stepRows := make([][]interface{}, len(algs))
	err := sweep(rep, tbl, names, len(ps), func(r, c int) ([]interface{}, error) {
		o.progress("stalls %s P=%d", algs[r].Name(), ps[c])
		res := stallsim.RunFanin(stallsim.FaninConfig{Threads: ps[c], N: n, Algorithm: algs[r], Seed: 42})
		maxArr = max(maxArr, res.MaxArrives)
		stepRows[r] = append(stepRows[r], res.StepsPerOp())
		return []interface{}{res.StallsPerOp()}, nil
	})
	if err != nil {
		return nil, err
	}
	for r, row := range stepRows {
		steps.AddRow(append([]interface{}{names[r]}, row...)...)
	}
	rep.Tables = append(rep.Tables, steps)
	rep.Notes = append(rep.Notes,
		"expected shape: fetchadd stalls/op grows linearly with P; dyn stays O(1); fixed depth in between",
		fmt.Sprintf("max node-level arrives in any dyn(p=1) increment: %d (Corollary 4.7 bound: 3)", maxArr))
	return rep, nil
}

// Ablations measures the design-choice variants of DESIGN.md §5:
// the paper's algorithm vs naive decrement ordering (A2) vs
// arrive-at-handle (A3), on the native fanin benchmark.
func Ablations(o Options) (*Report, error) {
	o = o.fill()
	rep := &Report{Figure: "Ablations", Title: "In-counter design-choice variants (fanin)"}
	n := o.n(defaultN / 2)
	tbl := stats.NewTable(fmt.Sprintf("fanin n=%d p=%d, threshold=1", n, o.MaxProcs),
		"variant", "ops/sec/core", "incounter-nodes")
	names := []string{"paper", "naive-dec-order", "arrive-at-handle", "both"}
	err := sweep(rep, tbl, names, 1, func(v, _ int) ([]interface{}, error) {
		m, err := o.measure(rep, Spec{Bench: "fanin", Algo: "dyn", Procs: o.MaxProcs, N: n,
			Threshold: 1, Variant: uint8(v)})
		return []interface{}{m.OpsPerSecPerCore, m.IncounterNodes}, err
	})
	if err != nil {
		return nil, err
	}

	// Second table: the arrive-path depths each variant produces, on a
	// deterministic random valid execution. This is where breaking the
	// design rules shows: the paper's algorithm is bounded by 3
	// (Corollary 4.7); the variants climb further.
	depthTbl := stats.NewTable("arrive-path depth per increment (sequential valid execution, threshold 1)",
		"variant", "mean", "max")
	variants := []core.Variant{core.VariantPaper, core.VariantNaiveDecOrder,
		core.VariantArriveAtHandle, core.VariantNaiveDecOrder | core.VariantArriveAtHandle}
	for i, v := range variants {
		mean, deepest := measureArriveDepths(v, 20000)
		depthTbl.AddRow(names[i], mean, deepest)
	}
	rep.Tables = append(rep.Tables, depthTbl)
	rep.Notes = append(rep.Notes,
		"A2/A3: breaking the decrement ordering or the arrive-at-child rule lengthens arrive paths; correctness is preserved")
	return rep, nil
}

// measureArriveDepths drives a random valid execution against an
// in-counter variant and returns the mean and max arrive-path depth
// over all increments.
func measureArriveDepths(v core.Variant, steps int) (mean float64, deepest int) {
	g := rng.NewXoshiro(1234)
	c := core.New(1, core.WithVariant(v))
	live := []core.State{c.RootState()}
	total, count := 0, 0
	for i := 0; i < steps && len(live) > 0; i++ {
		j := int(g.Uint64n(uint64(len(live))))
		if g.Uint64n(3) != 0 {
			l, r, d := live[j].IncrementDepth(true)
			total += d
			count++
			deepest = max(deepest, d)
			live[j] = l
			live = append(live, r)
		} else {
			live[j].Decrement()
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, s := range live {
		s.Decrement()
	}
	if count == 0 {
		return 0, 0
	}
	return float64(total) / float64(count), deepest
}

func distinct(xs []int) []int {
	for i, x := range xs {
		xs[i] = max(x, 1)
	}
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
