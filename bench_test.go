// Benchmarks regenerating the paper's tables and figures at reduced,
// go-test-friendly sizes. One Benchmark per figure of the PPoPP'17
// evaluation (the full, paper-scale sweeps live in cmd/ppopp17bench;
// see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results).
//
// Conventions: each iteration of a benchmark executes one complete
// workload run; the custom metric "ops/s/core" is the paper's y-axis
// (counter operations per second per worker), and the stall-model
// benchmarks report "stalls/op", the contention quantity of Theorem
// 4.9.
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
	"repro/internal/nested"
	"repro/internal/sim"
	"repro/internal/sink"
	"repro/internal/snzi"
	"repro/internal/stallsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

const benchN = 1 << 14 // fanin leaves per iteration

func procsAxis() []int {
	return []int{1, 2}
}

func newRT(b *testing.B, procs int, algo counter.Algorithm) *nested.Runtime {
	b.Helper()
	// The topology is pinned flat so the gated baseline cells keep one
	// meaning on every runner: without this, a multi-socket host's
	// sysfs would silently switch the cells to topology-aware
	// scheduling (same rationale as harness.Run; the topology axis has
	// its own benchmark, BenchmarkFig13Topology).
	w := procs
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	rt := nested.New(nested.Config{Workers: procs, Algorithm: algo, Seed: 1,
		Topology: topology.Flat(w)})
	b.Cleanup(rt.Close)
	return rt
}

func reportFanin(b *testing.B, res workload.Result) {
	b.ReportMetric(res.OpsPerSecPerCore(), "ops/s/core")
	b.ReportMetric(float64(res.FinalNodes), "incounter-nodes")
}

// BenchmarkFig08Fanin — Figure 8: fanin across counter algorithms and
// core counts, plus the contention-adaptive composite (within noise of
// fetchadd while uncontended, promoting toward dyn under contention).
func BenchmarkFig08Fanin(b *testing.B) {
	algos := []string{"fetchadd", "snzi-1", "snzi-4", "snzi-8", "dyn", "adaptive"}
	for _, algo := range algos {
		for _, p := range procsAxis() {
			b.Run(fmt.Sprintf("%s/p=%d", algo, p), func(b *testing.B) {
				alg, err := counter.Parse(algo, nested.DefaultThreshold(p))
				if err != nil {
					b.Fatal(err)
				}
				rt := newRT(b, p, alg)
				var res workload.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res = workload.Fanin(rt, benchN)
				}
				b.StopTimer()
				reportFanin(b, res)
			})
		}
	}
}

// BenchmarkPhaseShift — the adaptive counter's motivating workload: a
// low-contention prologue into a fan-in storm on one finish counter,
// which neither static algorithm wins at both ends.
func BenchmarkPhaseShift(b *testing.B) {
	for _, algo := range []string{"fetchadd", "dyn", "adaptive"} {
		for _, p := range procsAxis() {
			b.Run(fmt.Sprintf("%s/p=%d", algo, p), func(b *testing.B) {
				alg, err := counter.Parse(algo, nested.DefaultThreshold(p))
				if err != nil {
					b.Fatal(err)
				}
				rt := newRT(b, p, alg)
				var res workload.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res = workload.PhaseShift(rt, benchN)
				}
				b.StopTimer()
				reportFanin(b, res)
				if pr, ok := alg.(counter.PromotionReporter); ok {
					// Per iteration, not the raw total: the stats sink
					// accumulates across all b.N runs, and a cumulative
					// value would make the committed baseline depend on
					// -benchtime.
					b.ReportMetric(float64(pr.Promotions())/float64(b.N), "promotions")
				}
			})
		}
	}
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
	const (
		zipfN    = benchN / 4
		zipfKeys = 8
		zipfSkew = 1.2
	)
	for _, spec := range []string{"adaptive:0", "adaptive:0:16"} {
		for _, p := range procsAxis() {
			b.Run(fmt.Sprintf("%s/p=%d", spec, p), func(b *testing.B) {
				alg, err := counter.Parse(spec, nested.DefaultThreshold(p))
				if err != nil {
					b.Fatal(err)
				}
				rt := newRT(b, p, alg)
				before := rt.Scheduler().Stats()
				var res workload.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res = workload.ZipfHotKey(rt, zipfN, zipfKeys, zipfSkew)
				}
				b.StopTimer()
				after := rt.Scheduler().Stats()
				b.ReportMetric(res.OpsPerSecPerCore(), "ops/s/core")
				// Per-op ledger across all b.N runs: operations not
				// buffered hit the shared counter directly, buffered ones
				// only surface as frontend flushes.
				ops := res.CounterOps * uint64(b.N)
				flushes := after.CounterFlushes - before.CounterFlushes
				buffered := after.CounterLocalIncs - before.CounterLocalIncs
				rmws := flushes
				if ops > buffered {
					rmws += ops - buffered
				}
				b.ReportMetric(float64(rmws)/float64(ops), "shared-rmws/op")
			})
		}
	}
}

// BenchmarkBurst — the elastic worker pool's motivating workload (not
// a figure of the paper): alternating idle gaps and concurrent
// fan-out storms, on a pool fixed at the floor, fixed at the ceiling,
// and elastic between the two. The ops/s metric (total, not per-core —
// the three pools deliberately run different worker counts) is what
// benchgate gates: the elastic cell must hold the fixed-max cell's
// throughput while the peak/steady metrics show it growing to the
// ceiling during storms and renting back down after (the direct
// elastic-vs-fixed-max ratio is asserted in elastic_test.go).
func BenchmarkBurst(b *testing.B) {
	const maxW = 4
	cfg := workload.BurstConfig{
		Leaves: benchN / 16, Storms: 4, Lanes: 2 * maxW,
		Gap: 2 * time.Millisecond,
	}
	pools := []struct {
		name     string
		min, max int
	}{
		{"fixed-min", 1, 0},
		{"fixed-max", maxW, 0},
		{"elastic", 1, maxW},
	}
	for _, pool := range pools {
		b.Run(pool.name, func(b *testing.B) {
			rt := nested.New(nested.Config{
				Workers: pool.min, MaxWorkers: pool.max, Seed: 1,
				RetireAfter: 25 * time.Millisecond,
				Topology:    topology.Flat(maxW), // pinned: see newRT
			})
			b.Cleanup(rt.Close)
			// Aggregate over all iterations (not the last run alone):
			// a single 4-storm run is short enough that scheduler noise
			// would dominate the gated metric.
			var ops uint64
			var busy time.Duration
			peak := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := workload.Burst(rt, cfg)
				ops += res.CounterOps
				busy += res.Elapsed
				if res.Workers > peak {
					peak = res.Workers
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ops)/busy.Seconds(), "ops/s")
			b.ReportMetric(float64(peak), "peak-workers")
		})
	}
}

// BenchmarkServe — the gateway serving path (not a figure of the
// paper; see internal/gateway and `ppopp17bench -fig serve`): an
// in-process HTTP server over a fixed 2-worker runtime, driven
// open-loop by internal/workload's Uniform generator. The steady cell
// offers a fixed 100 req/s (well under capacity on any host), so its
// gated ops/s is rate-bound and host-stable; the overload cell offers
// 600 req/s against a shallow queue, so completed throughput is
// capacity-bound and the shed-rate metric (presence-gated) shows
// admission control actually refusing the excess — that metric
// vanishing from a cell means the bounded queue came unwired.
func BenchmarkServe(b *testing.B) {
	workload.CalibrateWork()
	const serviceUS = 5000
	for _, cell := range []struct {
		name string
		rate float64
	}{{"steady", 100}, {"overload", 600}} {
		b.Run(cell.name, func(b *testing.B) {
			srv := gateway.NewServer("127.0.0.1:0", gateway.Config{
				RuntimeOptions: []repro.Option{repro.WithWorkers(2), repro.WithSeed(1)},
				Dispatchers:    4,
				QueueDepth:     8,
			})
			if err := srv.Listen(); err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ctx) }()
			b.Cleanup(func() {
				cancel()
				if err := <-served; err != nil {
					b.Fatal(err)
				}
			})
			cfg := workload.ServeConfig{
				URL:      "http://" + srv.Addr(),
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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := workload.Uniform(cfg)
				if res.Errors > 0 {
					b.Fatalf("request errors: %+v", res)
				}
				sent += res.Sent
				ok += res.OK
				shed += res.Shed
				busy += res.Elapsed
			}
			b.StopTimer()
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
// configured fuses, not by code speed; what benchgate gates is the
// presence-gated "reaped" metric (exactly 1 per iteration) — it
// vanishing or moving off 1 means the reap path came unwired.
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
// publish fast path (a shard-buffer append); the gated
// "coalesce-ratio" metric is logical writes per backend call, which
// the default threshold of 32 must hold at ≥ 16 — it collapsing
// toward 1 means coalescing came unwired and every run is paying a
// backend round-trip. The floor is asserted here (not just gated)
// once the fan-in is large enough for the ratio to be meaningful.
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
	for _, n := range []uint64{benchN / 4, benchN, benchN * 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rt := newRT(b, 0, counter.Dynamic{Threshold: nested.DefaultThreshold(runtime.GOMAXPROCS(0))})
			var res workload.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = workload.Fanin(rt, n)
			}
			b.StopTimer()
			reportFanin(b, res)
		})
	}
}

// BenchmarkFig10Indegree2 — Figure 10: the indegree2 benchmark across
// algorithms (per-finish-block allocation stress).
func BenchmarkFig10Indegree2(b *testing.B) {
	for _, algo := range []string{"fetchadd", "snzi-2", "snzi-4", "dyn"} {
		b.Run(algo, func(b *testing.B) {
			alg, err := counter.Parse(algo, nested.DefaultThreshold(2))
			if err != nil {
				b.Fatal(err)
			}
			rt := newRT(b, 0, alg)
			var res workload.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = workload.Indegree2(rt, benchN)
			}
			b.StopTimer()
			reportFanin(b, res)
		})
	}
}

// BenchmarkFig11Threshold — Figure 11: the grow-probability threshold
// study.
func BenchmarkFig11Threshold(b *testing.B) {
	for _, th := range []uint64{10, 100, 1000, 100000} {
		b.Run(fmt.Sprintf("th=%d", th), func(b *testing.B) {
			rt := newRT(b, 0, counter.Dynamic{Threshold: th})
			var res workload.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = workload.Fanin(rt, benchN)
			}
			b.StopTimer()
			reportFanin(b, res)
		})
	}
}

// BenchmarkFig12SnziRepro — Figure 12 (appendix C.1): the original
// SNZI paper's raw arrive/depart stress test.
func BenchmarkFig12SnziRepro(b *testing.B) {
	const ops = 1 << 14
	for _, cfg := range []struct {
		name  string
		depth int
	}{{"fetchadd", -1}, {"snzi-2", 2}, {"snzi-5", 5}} {
		for _, p := range procsAxis() {
			b.Run(fmt.Sprintf("%s/p=%d", cfg.name, p), func(b *testing.B) {
				var res workload.Result
				for i := 0; i < b.N; i++ {
					res = workload.SnziStress(p, cfg.depth, ops)
				}
				b.ReportMetric(res.OpsPerSecPerCore(), "ops/s/core")
			})
		}
	}
}

// BenchmarkFig13Topology — Figure 13 (appendix C.2) on the real
// scheduler: fanin under a flat topology vs a synthetic 2-node
// topology, with the counter algorithm pinned explicitly per cell
// (nothing follows the runtime default). Beyond ops/s/core, each cell
// reports the per-iteration local/remote steal split — the mechanism
// benchgate gates: the locality counters vanishing from a cell means
// the topology layer came unwired.
func BenchmarkFig13Topology(b *testing.B) {
	const workers = 2
	topos := []struct {
		name string
		topo topology.Topology
	}{
		{"flat", topology.Flat(workers)},
		{"2-node", topology.Synthetic(2, 1)},
	}
	for _, tp := range topos {
		for _, algo := range []string{"fetchadd", "dyn"} {
			b.Run(fmt.Sprintf("%s/%s", tp.name, algo), func(b *testing.B) {
				alg, err := counter.Parse(algo, nested.DefaultThreshold(workers))
				if err != nil {
					b.Fatal(err)
				}
				rt := nested.New(nested.Config{Workers: workers, Algorithm: alg, Seed: 1, Topology: tp.topo})
				b.Cleanup(rt.Close)
				sc := rt.Scheduler()
				st0 := sc.Stats()
				var res workload.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res = workload.Fanin(rt, benchN)
				}
				b.StopTimer()
				reportFanin(b, res)
				st := sc.Stats()
				b.ReportMetric(float64(st.LocalSteals-st0.LocalSteals)/float64(b.N), "local-steals")
				b.ReportMetric(float64(st.RemoteSteals-st0.RemoteSteals)/float64(b.N), "remote-steals")
			})
		}
	}
}

// BenchmarkFig14Granularity — Figure 14 (appendix C.3): fanin with
// calibrated dummy work per task.
func BenchmarkFig14Granularity(b *testing.B) {
	workload.CalibrateWork()
	for _, work := range []int{1, 100, 10000} {
		for _, algo := range []string{"fetchadd", "snzi-4", "dyn"} {
			b.Run(fmt.Sprintf("work=%dns/%s", work, algo), func(b *testing.B) {
				alg, err := counter.Parse(algo, nested.DefaultThreshold(2))
				if err != nil {
					b.Fatal(err)
				}
				rt := newRT(b, 0, alg)
				var res workload.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res = workload.FaninWork(rt, benchN/4, work)
				}
				b.StopTimer()
				reportFanin(b, res)
			})
		}
	}
}

// BenchmarkFig15SpeedupCurves — Figures 15a-e: cores sweep at a fixed
// work level (speedups are computed across the reported times).
func BenchmarkFig15SpeedupCurves(b *testing.B) {
	workload.CalibrateWork()
	const work = 1000
	for _, algo := range []string{"fetchadd", "dyn"} {
		for _, p := range procsAxis() {
			b.Run(fmt.Sprintf("%s/p=%d", algo, p), func(b *testing.B) {
				alg, err := counter.Parse(algo, nested.DefaultThreshold(p))
				if err != nil {
					b.Fatal(err)
				}
				rt := newRT(b, p, alg)
				var res workload.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res = workload.FaninWork(rt, benchN/4, work)
				}
				b.StopTimer()
				reportFanin(b, res)
			})
		}
	}
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
	for _, th := range []uint64{1, 50, 5000} {
		b.Run(fmt.Sprintf("th=%d", th), func(b *testing.B) {
			rt := newRT(b, 0, counter.Dynamic{Threshold: th})
			var res workload.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = workload.Fanin(rt, benchN)
			}
			b.StopTimer()
			reportFanin(b, res)
		})
	}
}

// BenchmarkAblationDecOrder — DESIGN.md A2: the ordered shared
// decrement pairs vs the naive (reversed) order.
func BenchmarkAblationDecOrder(b *testing.B) {
	for _, v := range []struct {
		name    string
		variant core.Variant
	}{{"paper", core.VariantPaper}, {"naive", core.VariantNaiveDecOrder}} {
		b.Run(v.name, func(b *testing.B) {
			rt := newRT(b, 0, counter.Dynamic{Threshold: 1, Variant: v.variant})
			var res workload.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = workload.Fanin(rt, benchN)
			}
			b.StopTimer()
			reportFanin(b, res)
		})
	}
}

// BenchmarkAblationArriveTarget — DESIGN.md A3: arrive at the freshly
// grown child (leaves-only-zero invariant) vs at the handle node.
func BenchmarkAblationArriveTarget(b *testing.B) {
	for _, v := range []struct {
		name    string
		variant core.Variant
	}{{"paper", core.VariantPaper}, {"at-handle", core.VariantArriveAtHandle}} {
		b.Run(v.name, func(b *testing.B) {
			rt := newRT(b, 0, counter.Dynamic{Threshold: 1, Variant: v.variant})
			var res workload.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = workload.Fanin(rt, benchN)
			}
			b.StopTimer()
			reportFanin(b, res)
		})
	}
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
	for _, prune := range []bool{false, true} {
		name := "off"
		if prune {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			rt := newRT(b, 0, counter.Dynamic{Threshold: 1, Prune: prune})
			var res workload.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = workload.Fanin(rt, benchN)
			}
			b.StopTimer()
			reportFanin(b, res)
		})
	}
}

// BenchmarkSim — the discrete-event scheduler replay (`ppopp17bench
// -fig sim`; internal/sim): the scheduler's decision logic stepped at
// 1024 simulated workers, far beyond any runner. ns/op is the
// simulator's own speed and is not gated; every reported metric is a
// pure function of (seed, config) — identical on every run, every
// host, every GOMAXPROCS — so CI gates these cells with benchgate
// -exact-metrics against bench/baseline_sim.txt: any drift, even by
// one steal, means the modeled decision logic changed and the
// baseline must be regenerated in the same commit that changed it.
func BenchmarkSim(b *testing.B) {
	const workers = 1024
	burst := func(n, d int) []sim.Arrival {
		arr := make([]sim.Arrival, n)
		for i := range arr {
			arr[i] = sim.Arrival{Tick: i / 32, Depth: d}
		}
		return arr
	}
	type cell struct {
		name string
		cfg  sim.Config
	}
	// The chase-lev/ prefix names the stealing protocol the gated
	// baseline cells were cut on; it is kept so they stay comparable.
	cells := []cell{
		{"chase-lev/flat", sim.Config{Workers: workers, Seed: 1,
			Topo: topology.Flat(workers), Arrivals: burst(4, 12)}},
		{"chase-lev/8-node", sim.Config{Workers: workers, Seed: 1,
			Topo: topology.Synthetic(8, workers/8), Arrivals: burst(4, 12)}},
		{"chase-lev/elastic", sim.Config{Workers: 16, MaxWorkers: workers,
			Seed: 1, RetireAfterTicks: 16, Topo: topology.Flat(workers),
			Arrivals: burst(128, 9)}},
	}
	for _, cell := range cells {
		b.Run(cell.name, func(b *testing.B) {
			cfg := cell.cfg
			var res sim.Result
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
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
