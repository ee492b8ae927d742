package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro"
)

// batchWorkload is one closed-loop batch workload: a kernel run op
// after op, one at a time, on a 2-worker runtime with a pinned counter
// spec ("" keeps the runtime's default).
type batchWorkload struct {
	counter string
	build   func(seed uint64, smoke bool) *kernel
}

// Sizes are frozen: an op lands in 80–250 ms on the 2-core reference
// box (fanin_dyn ≈ 147 ms, indegree2_default ≈ 117 ms, zipf_ladder ≈
// 100 ms at the commit that defined the benchmark). -smoke shrinks them.
var batchWorkloads = map[string]batchWorkload{
	"fanin_dyn": {"dyn", func(_ uint64, smoke bool) *kernel {
		return newFanin(pick(smoke, 1<<10, 1<<18))
	}},
	"indegree2_default": {"", func(_ uint64, smoke bool) *kernel {
		return newIndegree2(pick(smoke, 1<<9, 1<<17))
	}},
	"zipf_ladder": {"adaptive:32:64", func(seed uint64, smoke bool) *kernel {
		return newZipfLadder(pick(smoke, 1<<12, 1<<18), 64, 1.1, seed)
	}},
}

func pick(smoke bool, small, full uint64) uint64 {
	if smoke {
		return small
	}
	return full
}

// warmupOps is the fixed warm-up of every batch epoch; it belongs to
// setup_s.
const warmupOps = 8

// epoch is what one set-up plus one measured window yields. A run makes
// several epochs, each on a fresh runtime, and reports medians across
// them: a runtime's op time sits a few percent off its neighbour's for
// as long as it lives (worker placement, pool and heap layout), which a
// longer window on the same runtime does not average away.
type epoch struct {
	setupS      float64
	opMS        []float64 // one sample per successful op, in order
	tracedMS    []float64 // traced epochs only: opMS split into the ops that were traced
	plainMS     []float64 // and the ones in between that were not
	opsPerS     float64
	cpuMSPerOp  float64
	allocsPerOp float64
	attempted   int
	failed      int

	// For the traced run's ledger: the program's public counters and
	// the op count they cover, the window's GC meters and the op count
	// they cover, and samples of the program's gauges.
	stats        repro.Stats
	statsOps     int
	windowOps    int
	gcCycles     uint32
	gcPauseMS    float64
	parkedFrac   float64
	injectorPeak int
}

// rusage is getrusage(RUSAGE_SELF): the process's CPU time and peak
// resident set, as the kernel accounts them.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprint("getrusage: ", err)) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// window brackets a measured window with the outside-the-program
// meters every workload reads: wall clock, process CPU, heap counters.
type window struct {
	start time.Time
	cpu   float64
	mem   runtime.MemStats
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.cpu = cpuSeconds()
	w.start = time.Now()
	return w
}

// close fills the per-op meters of e for ops completed operations.
func (w *window) close(e *epoch, ops int) {
	elapsed := time.Since(w.start).Seconds()
	cpu := cpuSeconds() - w.cpu
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := float64(max(ops, 1))
	e.windowOps = ops
	e.opsPerS = float64(ops) / elapsed
	e.cpuMSPerOp = cpu * 1e3 / n
	e.allocsPerOp = float64(mem.Mallocs-w.mem.Mallocs) / n
	e.gcCycles = mem.NumGC - w.mem.NumGC
	e.gcPauseMS = float64(mem.PauseTotalNs-w.mem.PauseTotalNs) / 1e6
}

// statsDelta returns after with its cumulative counters replaced by
// their growth since before.
func statsDelta(before, after repro.Stats) repro.Stats {
	d := after
	d.Vertices -= before.Vertices
	d.Executed -= before.Executed
	d.Steals -= before.Steals
	d.Promotions -= before.Promotions
	d.Demotions -= before.Demotions
	d.CounterFlushes -= before.CounterFlushes
	d.CounterLocalIncs -= before.CounterLocalIncs
	return d
}

// gaugeSampler polls a runtime's Parked and InjectorDepth gauges from
// outside while a traced window runs.
type gaugeSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	parked, workers int // summed over the samples
	injectorPeak    int
}

func sampleGauges(rt *repro.Runtime) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				s := rt.Stats()
				g.parked += s.Parked
				g.workers += s.Workers
				g.injectorPeak = max(g.injectorPeak, s.InjectorDepth)
			}
		}
	}()
	return g
}

// finish stops the sampler and stores its gauges in e.
func (g *gaugeSampler) finish(e *epoch) {
	close(g.stop)
	g.wg.Wait()
	if g.workers > 0 {
		e.parkedFrac = float64(g.parked) / float64(g.workers)
	}
	e.injectorPeak = g.injectorPeak
}

// settledStats snapshots rt's Stats once its Executed counter has
// reached want. Run returns when the final vertex's body has run, a
// moment before the worker that ran it counts it as executed, so the
// first snapshot after a Run may be one or two short. The wait sleeps
// rather than spins (a spinning caller can keep that worker off its
// processor for milliseconds); a counter still short after settleLimit,
// or one that overshoots, is a failed output check.
func settledStats(rt *repro.Runtime, want uint64) repro.Stats {
	const settleLimit = 100 * time.Millisecond
	s := rt.Stats()
	for t0 := time.Now(); s.Executed < want && time.Since(t0) < settleLimit; s = rt.Stats() {
		time.Sleep(20 * time.Microsecond)
	}
	return s
}

// batchEpoch sets a runtime up (construction, kernel tables, fixed
// warm-up, one GC), measures a closed loop of ops for the given time,
// and closes the runtime. Every op's Stats deltas are checked against
// the kernel's closed-form vertex counts. tr, when non-nil, records a
// bench.op → repro.Run span pair for every other op (so that traced and
// untraced op times come from the same runtime at the same time) and
// switches the gauge sampler on.
func batchEpoch(w batchWorkload, workers int, counter string, seed uint64, smoke bool, d time.Duration, tr *tracer) (epoch, error) {
	var e epoch
	setup := time.Now()
	opts := []repro.Option{repro.WithWorkers(workers)}
	if counter != "" {
		opts = append(opts, repro.WithCounter(counter))
	}
	rt := repro.NewRuntime(opts...)
	defer rt.Close()
	k := w.build(seed, smoke)
	for i := 0; i < warmupOps; i++ {
		if err := rt.Run(k.root); err != nil {
			return e, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	runtime.GC()
	e.setupS = time.Since(setup).Seconds()

	var gauges *gaugeSampler
	if tr != nil {
		gauges = sampleGauges(rt)
	}
	first := rt.Stats()
	prev := first
	win := openWindow()
	for time.Since(win.start) < d {
		opTr := tr.everyOther(e.attempted)
		op := opTr.begin("bench.op", -1, e.attempted)
		run := opTr.begin("repro.Run", op, e.attempted)
		t0 := time.Now()
		err := rt.Run(k.root)
		took := time.Since(t0)
		opTr.end(run)
		now := settledStats(rt, prev.Executed+uint64(k.executed()))
		e.attempted++
		if err != nil || now.Vertices-prev.Vertices != k.vertices() ||
			int64(now.Executed-prev.Executed) != k.executed() {
			e.failed++
		} else {
			ms := float64(took) / float64(time.Millisecond)
			e.opMS = append(e.opMS, ms)
			if opTr != nil {
				e.tracedMS = append(e.tracedMS, ms)
			} else if tr != nil {
				e.plainMS = append(e.plainMS, ms)
			}
		}
		prev = now
		opTr.end(op)
	}
	win.close(&e, e.attempted-e.failed)
	if gauges != nil {
		gauges.finish(&e)
	}
	e.stats, e.statsOps = statsDelta(first, prev), e.attempted
	return e, nil
}
