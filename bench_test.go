// Benchmarks regenerating the paper's tables and figures at reduced,
// go-test-friendly sizes. One Benchmark per figure of the PPoPP'17
// evaluation (the full, paper-scale sweeps live in cmd/ppopp17bench;
// see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results). Every kernel cell is a harness.Spec
// built by harness.NewCell — the constructor the figure drivers use —
// so a cell here and the figure point of the same Spec measure the
// same runtime running the same kernel. One exception: BenchmarkBurst
// takes only its cell's runtime and runs workload.Burst itself, with
// the same lanes for every pool, where the burst figure's cell offers
// each pool lanes at twice that pool's own ceiling.
//
// Conventions: each iteration of a benchmark executes one complete
// workload run; the custom metric "ops/s/core" is the paper's y-axis
// (counter operations per second per worker), and the stall-model
// benchmarks report "stalls/op", the contention quantity of Theorem
// 4.9. bench/cells.txt lists every cell name; CI diffs it against
// the bench smoke run. Timings here are read, not gated: the
// allocation budgets of the Fig08, PhaseShift, ZipfHotKey, Burst and
// Fig13 cells, and the exact sim cells, are held by tier-1 tests in
// internal/harness (TestCellAllocBudgets, TestSimCells).
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/sink"
	"repro/internal/snzi"
	"repro/internal/stallsim"
	"repro/internal/workload"
)

const benchN = 1 << 14 // fanin leaves per iteration

// cell is one kernel benchmark cell: a harness.Spec under its
// sub-benchmark name.
type cell struct {
	name string
	spec harness.Spec
}

// cellReport reports a cell's metrics from its last run and the tally
// accumulated over all b.N runs.
type cellReport func(b *testing.B, spec harness.Spec, last workload.Result, d harness.Tally)

// runCells runs each cell as a sub-benchmark: b.N runs of its kernel
// on the runtime harness.NewCell built for its spec, then report.
func runCells(b *testing.B, cells []cell, report cellReport) {
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			hc := newCell(b, c.spec)
			t0 := hc.Tally()
			var last workload.Result
			loop(b, func() { last = hc.Run() })
			report(b, hc.Spec, last, hc.Tally().Sub(t0))
		})
	}
}

// newCell builds spec's harness cell at seed 1 and closes it with the
// benchmark.
func newCell(b *testing.B, spec harness.Spec) *harness.Cell {
	b.Helper()
	spec.Seed = 1
	c, err := harness.NewCell(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

// loop is the one b.N loop: it times b.N calls of op.
func loop(b *testing.B, op func()) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
}

// byAlgoAndProcs names one cell per algorithm × {1, 2} workers.
func byAlgoAndProcs(spec harness.Spec, algos ...string) []cell {
	var cells []cell
	for _, algo := range algos {
		for _, p := range []int{1, 2} {
			spec.Algo, spec.Procs = algo, p
			cells = append(cells, cell{fmt.Sprintf("%s/p=%d", algo, p), spec})
		}
	}
	return cells
}

// byThreshold names one dyn fanin cell per grow threshold, on every
// host thread.
func byThreshold(ths ...uint64) []cell {
	var cells []cell
	for _, th := range ths {
		cells = append(cells, cell{fmt.Sprintf("th=%d", th), harness.Spec{Bench: "fanin", Algo: "dyn",
			Procs: runtime.GOMAXPROCS(0), N: benchN, Threshold: th}})
	}
	return cells
}

// byVariant names one dyn fanin cell (threshold 1, every host thread)
// per in-counter variant-bit setting of harness.Spec.Variant.
func byVariant(names []string, bits ...uint8) []cell {
	var cells []cell
	for i, v := range bits {
		cells = append(cells, cell{names[i], harness.Spec{Bench: "fanin", Algo: "dyn",
			Procs: runtime.GOMAXPROCS(0), N: benchN, Threshold: 1, Variant: v}})
	}
	return cells
}

func reportOps(b *testing.B, _ harness.Spec, last workload.Result, _ harness.Tally) {
	b.ReportMetric(last.OpsPerSecPerCore(), "ops/s/core")
}

func reportFanin(b *testing.B, spec harness.Spec, last workload.Result, d harness.Tally) {
	reportOps(b, spec, last, d)
	b.ReportMetric(float64(last.FinalNodes), "incounter-nodes")
}

// BenchmarkFig08Fanin — Figure 8: fanin across counter algorithms and
// core counts, plus the contention-adaptive composite (within noise of
// fetchadd while uncontended, promoting toward dyn under contention).
func BenchmarkFig08Fanin(b *testing.B) {
	runCells(b, byAlgoAndProcs(harness.Spec{Bench: "fanin", N: benchN},
		"fetchadd", "snzi-1", "snzi-4", "snzi-8", "dyn", "adaptive"), reportFanin)
}

// BenchmarkPhaseShift — the adaptive counter's motivating workload: a
// low-contention prologue into a fan-in storm on one finish counter,
// which neither static algorithm wins at both ends.
func BenchmarkPhaseShift(b *testing.B) {
	runCells(b, byAlgoAndProcs(harness.Spec{Bench: "phase-shift", N: benchN}, "fetchadd", "dyn", "adaptive"),
		func(b *testing.B, spec harness.Spec, last workload.Result, d harness.Tally) {
			reportFanin(b, spec, last, d)
			if spec.Algo == "adaptive" {
				// Per iteration, not the raw total: a cumulative value
				// would depend on -benchtime.
				b.ReportMetric(float64(d.Promotions)/float64(b.N), "promotions")
			}
		})
}

// BenchmarkZipfHotKey — the batched counter frontend's motivating
// workload: k live finish counters drawing zipf(skew)-distributed
// shares of n operations, so the hot head key stays promoted while the
// cold tail stays on cells. The cells compare the promoted-unbatched
// spec (adaptive:0 — eager promotion isolates the batching axis from
// host parallelism) against the batched frontend (adaptive:0:16);
// shared-rmws/op is the coalescing ledger's headline quotient, and the
// full batch-threshold sweep lives in ppopp17bench -fig zipf.
func BenchmarkZipfHotKey(b *testing.B) {
	runCells(b, byAlgoAndProcs(harness.Spec{Bench: "zipf", N: benchN / 4}, "adaptive:0", "adaptive:0:16"),
		func(b *testing.B, spec harness.Spec, last workload.Result, d harness.Tally) {
			reportOps(b, spec, last, d)
			// Per-op ledger across all b.N runs.
			b.ReportMetric(harness.SharedRMWsPerOp(last.CounterOps*uint64(b.N),
				d.CounterLocalIncs, d.CounterFlushes), "shared-rmws/op")
		})
}

// BenchmarkBurst — the elastic worker pool's motivating workload (not
// a figure of the paper): alternating idle gaps and concurrent
// fan-out storms, on a pool fixed at the floor, fixed at the ceiling,
// and elastic between the two. The ops/s metric (total, not per-core —
// the three pools deliberately run different worker counts) shows the
// elastic cell holding the fixed-max cell's throughput while the
// peak-workers metric shows it growing to the ceiling during storms.
// The ratio is not asserted anywhere: elastic_test.go pins only that
// the burst spawns, completes and quiesces.
func BenchmarkBurst(b *testing.B) {
	const maxW = 4
	// Every pool is offered the same storms, lanes at twice the
	// ceiling, so the fixed-min cell runs the elastic cell's load
	// rather than its own pool's lane count. This is why the cell's
	// kernel (Cell.Run, lanes at twice each pool's own ceiling) is
	// not used here.
	cfg := workload.BurstConfig{
		Leaves: benchN / 16, Storms: 4, Lanes: 2 * maxW,
		Gap: 2 * time.Millisecond,
	}
	for _, c := range []cell{
		{"fixed-min", harness.Spec{Procs: 1}},
		{"fixed-max", harness.Spec{Procs: maxW}},
		{"elastic", harness.Spec{Procs: 1, MaxWorkers: maxW}},
	} {
		b.Run(c.name, func(b *testing.B) {
			c.spec.Bench, c.spec.Algo, c.spec.N = "burst", "adaptive", cfg.Leaves
			rt := newCell(b, c.spec).RT
			// Aggregate over all iterations (not the last run alone):
			// a single 4-storm run is short enough that scheduler noise
			// would dominate the metric.
			var ops uint64
			var busy time.Duration
			peak := 0
			loop(b, func() {
				res := workload.Burst(rt, cfg)
				ops += res.CounterOps
				busy += res.Elapsed
				peak = max(peak, res.Workers)
			})
			b.ReportMetric(float64(ops)/busy.Seconds(), "ops/s")
			b.ReportMetric(float64(peak), "peak-workers")
		})
	}
}

// BenchmarkServe — the gateway serving path (not a figure of the
// paper; see internal/gateway and `ppopp17bench -fig serve`): the
// serve figure's in-process HTTP server over a fixed 2-worker runtime,
// driven open-loop by internal/workload's Uniform generator. The
// steady cell offers a fixed 100 req/s (well under capacity on any
// host), so its ops/s is rate-bound; the overload cell offers 600
// req/s against a shallow queue, so completed throughput is
// capacity-bound and the shed-rate metric shows admission control
// refusing the excess. The per-request allocation budget lives in
// internal/gateway (TestRequestAllocBudgets), where it does not depend
// on the host's OK/shed mix.
func BenchmarkServe(b *testing.B) {
	workload.CalibrateWork()
	const serviceUS = 5000
	for _, cell := range []struct {
		name string
		rate float64
	}{{"steady", 100}, {"overload", 600}} {
		b.Run(cell.name, func(b *testing.B) {
			url, stop, err := harness.StartServer(2, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				if err := stop(); err != nil {
					b.Fatal(err)
				}
			})
			cfg := workload.ServeConfig{
				URL:      url,
				Template: "spin",
				N:        serviceUS,
				Timeout:  time.Minute, // sheds must come from admission, not deadlines
				Tenants:  4,
				Rate:     cell.rate,
				Duration: 150 * time.Millisecond,
			}
			// Aggregate over iterations, like BenchmarkBurst: one window
			// is short enough that arrival jitter would dominate.
			var sent, ok, shed int
			var busy time.Duration
			loop(b, func() {
				res := workload.Uniform(cfg)
				if res.Errors > 0 {
					b.Fatalf("request errors: %+v", res)
				}
				sent += res.Sent
				ok += res.OK
				shed += res.Shed
				busy += res.Elapsed
			})
			b.ReportMetric(float64(ok)/busy.Seconds(), "ops/s")
			b.ReportMetric(float64(shed)/float64(sent), "shed-rate")
		})
	}
}

// BenchmarkChaosRecovery — the self-defense reap drill (not a figure
// of the paper; `ppopp17bench -fig chaos` is the full recovery
// timeline): each iteration submits one wedge-template request — a
// task body that busy-spins ignoring cancellation — with a deadline
// far shorter than its spin, requires the hung-request reaper to
// force-fail it (ErrHung / 504) at deadline+grace, waits out the
// degraded hold-down, and proves the recovered dispatcher slot by
// completing a clean request. ns/op is therefore dominated by the
// configured fuses, not by code speed; the benchmark fails unless
// every iteration reaped exactly one request.
func BenchmarkChaosRecovery(b *testing.B) {
	workload.CalibrateWork()
	reg := gateway.Builtins()
	if err := reg.Register(gateway.WedgeTemplate()); err != nil {
		b.Fatal(err)
	}
	g := gateway.New(gateway.Config{
		RuntimeOptions:   []repro.Option{repro.WithWorkers(2), repro.WithSeed(1)},
		Registry:         reg,
		Dispatchers:      4,
		ReapGrace:        20 * time.Millisecond,
		DegradedHoldDown: 5 * time.Millisecond,
		JitterSeed:       1,
	})
	b.Cleanup(func() { g.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := g.Submit(ctx, "chaos", "wedge", 60)
		cancel()
		if !errors.Is(err, gateway.ErrHung) {
			b.Fatalf("wedge returned %v, want ErrHung", err)
		}
		for g.Degraded() {
			time.Sleep(time.Millisecond)
		}
		// No deadline: the recovery probe must never itself be reaped.
		if _, err := g.Submit(context.Background(), "chaos", "spin", 500); err != nil {
			b.Fatalf("post-reap request failed: %v", err)
		}
	}
	b.StopTimer()
	reaped := g.Stats().Reaped
	if reaped != uint64(b.N) {
		b.Fatalf("reaped %d requests over %d iterations, want exactly one each", reaped, b.N)
	}
	b.ReportMetric(float64(reaped)/float64(b.N), "reaped")
}

// BenchmarkSinkCoalescing — the run-record sink's write coalescing
// (not a figure of the paper; `ppopp17bench -fig sink` is the full
// threshold sweep): a fan-in of concurrent publishers, each completed
// run one Publish, against the default threshold. ns/op is the
// publish fast path (a shard-buffer append); the "coalesce-ratio"
// metric is logical writes per backend call, which the default
// threshold of 32 must hold at ≥ 16 — it collapsing toward 1 means
// coalescing came unwired and every run is paying a backend
// round-trip. The floor is asserted here once the fan-in is large
// enough for the ratio to be meaningful.
func BenchmarkSinkCoalescing(b *testing.B) {
	s := sink.New(sink.NewRing(1 << 16))
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := seq.Add(1)
			s.Publish(&sink.RunRecord{
				ID:       strconv.FormatUint(id, 36),
				Tenant:   "bench",
				Template: "fanin",
				Status:   sink.StatusOK,
			})
		}
	})
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	st := s.Stats()
	if st.Dropped != 0 || st.LogicalWrites != uint64(b.N) {
		b.Fatalf("sink stats = %+v over %d publishes, want all recorded", st, b.N)
	}
	ratio := float64(st.LogicalWrites)
	if st.BackendCalls > 0 {
		ratio = float64(st.LogicalWrites) / float64(st.BackendCalls)
	}
	// Short calibration rounds flush mostly via Close and cannot hit
	// the steady-state ratio; only a real fan-in is held to the floor.
	if b.N >= 1<<14 && ratio < 16 {
		b.Fatalf("coalesce ratio %.1f < 16 (%d logical writes, %d backend calls)",
			ratio, st.LogicalWrites, st.BackendCalls)
	}
	b.ReportMetric(ratio, "coalesce-ratio")
}

// BenchmarkFig09SizeInvariance — Figure 9: in-counter throughput per
// core across input sizes. The algorithm is pinned to the paper's
// in-counter (the figure is about dyn's size invariance, so it must
// not silently follow the runtime's adaptive default).
func BenchmarkFig09SizeInvariance(b *testing.B) {
	var cells []cell
	for _, n := range []uint64{benchN / 4, benchN, benchN * 4} {
		cells = append(cells, cell{fmt.Sprintf("n=%d", n),
			harness.Spec{Bench: "fanin", Algo: "dyn", Procs: runtime.GOMAXPROCS(0), N: n}})
	}
	runCells(b, cells, reportFanin)
}

// BenchmarkFig10Indegree2 — Figure 10: the indegree2 benchmark across
// algorithms (per-finish-block allocation stress).
func BenchmarkFig10Indegree2(b *testing.B) {
	var cells []cell
	for _, algo := range []string{"fetchadd", "snzi-2", "snzi-4", "dyn"} {
		cells = append(cells, cell{algo,
			harness.Spec{Bench: "indegree2", Algo: algo, Procs: runtime.GOMAXPROCS(0), N: benchN}})
	}
	runCells(b, cells, reportFanin)
}

// BenchmarkFig11Threshold — Figure 11: the grow-probability threshold
// study.
func BenchmarkFig11Threshold(b *testing.B) {
	runCells(b, byThreshold(10, 100, 1000, 100000), reportFanin)
}

// BenchmarkFig12SnziRepro — Figure 12 (appendix C.1): the original
// SNZI paper's raw arrive/depart stress test.
func BenchmarkFig12SnziRepro(b *testing.B) {
	runCells(b, byAlgoAndProcs(harness.Spec{Bench: "snzi-stress", N: 1 << 14}, "fetchadd", "snzi-2", "snzi-5"), reportOps)
}

// BenchmarkFig13Topology — Figure 13 (appendix C.2) on the real
// scheduler: fanin under a flat topology vs a synthetic 2-node
// topology, with the counter algorithm pinned explicitly per cell
// (nothing follows the runtime default). Beyond ops/s/core, each cell
// reports the per-iteration local/remote steal split, the mechanism
// the figure is about.
func BenchmarkFig13Topology(b *testing.B) {
	var cells []cell
	for nodes, topo := range []string{"flat", "2-node"} {
		for _, algo := range []string{"fetchadd", "dyn"} {
			cells = append(cells, cell{topo + "/" + algo,
				harness.Spec{Bench: "fanin-numa", Algo: algo, Procs: 2, Nodes: nodes + 1, N: benchN}})
		}
	}
	runCells(b, cells, func(b *testing.B, spec harness.Spec, last workload.Result, d harness.Tally) {
		reportFanin(b, spec, last, d)
		b.ReportMetric(float64(d.LocalSteals)/float64(b.N), "local-steals")
		b.ReportMetric(float64(d.RemoteSteals)/float64(b.N), "remote-steals")
	})
}

// BenchmarkFig14Granularity — Figure 14 (appendix C.3): fanin with
// calibrated dummy work per task.
func BenchmarkFig14Granularity(b *testing.B) {
	var cells []cell
	for _, work := range []int{1, 100, 10000} {
		for _, algo := range []string{"fetchadd", "snzi-4", "dyn"} {
			cells = append(cells, cell{fmt.Sprintf("work=%dns/%s", work, algo), harness.Spec{Bench: "fanin-work",
				Algo: algo, Procs: runtime.GOMAXPROCS(0), N: benchN / 4, WorkNs: work}})
		}
	}
	runCells(b, cells, reportFanin)
}

// BenchmarkFig15SpeedupCurves — Figures 15a-e: cores sweep at a fixed
// work level (speedups are computed across the reported times).
func BenchmarkFig15SpeedupCurves(b *testing.B) {
	runCells(b, byAlgoAndProcs(harness.Spec{Bench: "fanin-work", N: benchN / 4, WorkNs: 1000}, "fetchadd", "dyn"), reportFanin)
}

// BenchmarkStallModel — the Theorem 4.8/4.9 experiment: contention
// (stalls per counter op) in the simulated shared-memory model, with
// simulated processor counts far beyond the host.
func BenchmarkStallModel(b *testing.B) {
	algos := []struct {
		name string
		alg  stallsim.SimAlgorithm
	}{
		{"fetchadd", stallsim.FetchAdd{}},
		{"snzi-4", stallsim.FixedSNZI{Depth: 4}},
		{"dyn", stallsim.Dynamic{Threshold: 1}},
	}
	for _, a := range algos {
		for _, p := range []int{4, 32, 128} {
			b.Run(fmt.Sprintf("%s/P=%d", a.name, p), func(b *testing.B) {
				var res stallsim.FaninResult
				for i := 0; i < b.N; i++ {
					res = stallsim.RunFanin(stallsim.FaninConfig{
						Threads: p, N: 512, Algorithm: a.alg, Seed: uint64(i)})
				}
				b.ReportMetric(res.StallsPerOp(), "stalls/op")
				b.ReportMetric(res.StepsPerOp(), "steps/op")
			})
		}
	}
}

// BenchmarkAblationGrowProbability — DESIGN.md A1: p = 1 vs
// probabilistic growth (contention vs allocation trade).
func BenchmarkAblationGrowProbability(b *testing.B) {
	runCells(b, byThreshold(1, 50, 5000), reportFanin)
}

// BenchmarkAblationDecOrder — DESIGN.md A2: the ordered shared
// decrement pairs vs the naive (reversed) order.
func BenchmarkAblationDecOrder(b *testing.B) {
	runCells(b, byVariant([]string{"paper", "naive"}, 0, 1), reportFanin)
}

// BenchmarkAblationArriveTarget — DESIGN.md A3: arrive at the freshly
// grown child (leaves-only-zero invariant) vs at the handle node.
func BenchmarkAblationArriveTarget(b *testing.B) {
	runCells(b, byVariant([]string{"paper", "at-handle"}, 0, 2), reportFanin)
}

// BenchmarkSNZIArriveDepart — microbenchmark of the raw SNZI
// protocol (single thread, no runtime).
func BenchmarkSNZIArriveDepart(b *testing.B) {
	tree := snzi.NewTree(1)
	leaf, _ := tree.Root().Grow(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaf.Arrive()
		leaf.Depart()
	}
}

// BenchmarkInCounterIncDec — microbenchmark of one in-counter
// increment + decrement pair through the core API.
func BenchmarkInCounterIncDec(b *testing.B) {
	c := core.New(1)
	s := c.RootState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, r := s.Increment(true)
		r.Decrement()
		s = l
	}
}

// BenchmarkFetchAddIncDec — the baseline pair for comparison.
func BenchmarkFetchAddIncDec(b *testing.B) {
	c := counter.FetchAdd{}.New(1)
	s := c.RootState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, _ := s.Increment(nil)
		l.Decrement()
	}
}

// BenchmarkAblationPruning — §B space management on vs off: the cost
// of reclaiming quiesced subtrees and its effect on live tree size.
func BenchmarkAblationPruning(b *testing.B) {
	runCells(b, byVariant([]string{"off", "on"}, 0, 4), reportFanin)
}

// BenchmarkSim — the discrete-event scheduler replay (`ppopp17bench
// -fig sim`; internal/sim): the sim figure's 1024-worker cells
// (harness.SimCells), the scheduler's decision logic stepped far
// beyond any runner. ns/op is the simulator's own speed; every
// reported metric is a pure function of (seed, config) — identical on
// every run, every host, every GOMAXPROCS — and internal/harness
// TestSimCells pins the same cells exactly against a golden file.
func BenchmarkSim(b *testing.B) {
	for _, c := range harness.SimCells() {
		// The chase-lev/ prefix names the scheduler's stealing
		// protocol; it is kept so the cell names stay stable.
		b.Run("chase-lev/"+c.Name, func(b *testing.B) {
			cfg := c.Config
			var res sim.Result
			loop(b, func() {
				var err error
				if res, err = sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			})
			if res.Truncated {
				b.Fatalf("truncated at %d ticks", res.Ticks)
			}
			b.ReportMetric(float64(res.Ticks), "ticks")
			b.ReportMetric(float64(res.Executed), "executed")
			b.ReportMetric(float64(res.LocalSteals), "local-steals")
			b.ReportMetric(float64(res.RemoteSteals), "remote-steals")
			b.ReportMetric(float64(res.Promotions), "promotions")
			if cfg.MaxWorkers > cfg.Workers {
				b.ReportMetric(float64(res.Spawned), "spawned")
				b.ReportMetric(float64(res.Retired), "retired")
				b.ReportMetric(float64(res.PeakLive), "peak-workers")
				b.ReportMetric(float64(res.SteadyLive), "steady-workers")
			}
		})
	}
}
