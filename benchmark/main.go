// Command benchmark is the repository's benchmark: one process runs one
// workload, measures it from outside the program, checks its outputs
// and prints every metric by name and unit, ending with one JSON line.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloadNames lists the workloads in the order the README discusses
// them.
var workloadNames = []string{"fanin_dyn", "indegree2_default", "zipf_ladder", "serve_mix"}

// benchWorkers pins both GOMAXPROCS and the runtime's worker count,
// whatever the host's width, so a number means the same everywhere.
const benchWorkers = 2

// epochs is how many fresh set-ups an untraced run makes; it reports
// medians across them.
const epochs = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in the order they were set.
type report struct {
	names []string
	m     map[string]metric
}

func newReport() *report { return &report{m: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) {
	if _, dup := r.m[name]; !dup {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{v, unit}
}

func (r *report) get(name string) float64 { return r.m[name].Value }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: fanin_dyn, indegree2_default, zipf_ladder or serve_mix")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs (never of the runtime)")
	fs.Float64Var(&o.seconds, "seconds", 25, "seconds to measure for")
	fs.IntVar(&trace, "trace", 0, "1 makes the traced run: per-layer metrics, spans written under -out")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes, about a second a workload; the numbers are not comparable")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	if !o.smoke && runtime.NumCPU() < benchWorkers {
		fmt.Fprintf(stderr, "benchmark: a measured run needs %d CPUs, this host has %d (use -smoke to only exercise the code)\n",
			benchWorkers, runtime.NumCPU())
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	runtime.GOMAXPROCS(benchWorkers)

	res, rep, err := measure(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.smoke {
		fmt.Fprintln(stdout, "SMOKE RUN: tiny sizes, numbers not comparable")
	}
	for _, name := range rep.names {
		m := rep.m[name]
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	res.Metrics = rep.m
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// epochFunc runs one epoch of a workload: a set-up at the given worker
// count, then a measured window of d, traced when tr is non-nil.
type epochFunc func(workers int, d time.Duration, tr *tracer) (serveEpoch, error)

// measure dispatches to the untraced or traced run of the workload.
func measure(o options, log io.Writer) (result, *report, error) {
	var one epochFunc
	if bw, ok := batchWorkloads[o.workload]; ok {
		one = func(workers int, d time.Duration, tr *tracer) (serveEpoch, error) {
			e, err := batchEpoch(bw, workers, bw.counter, o.seed, o.smoke, d, tr)
			return serveEpoch{epoch: e}, err
		}
	} else if o.workload == "serve_mix" {
		warmup := int(pick(o.smoke, serveWarmup/10, serveWarmup))
		one = func(workers int, d time.Duration, tr *tracer) (serveEpoch, error) {
			paced := d * 55 / 100
			return serveEpochRun(workers, o.seed, warmup, paced, d-paced, tr)
		}
	} else {
		return result{}, nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return tracedRun(o, d, log, one)
	}
	return untracedRun(d, log, one)
}

// untracedRun makes `epochs` set-ups, measures each for its share of d,
// and reports the end-to-end metrics, every one the median across
// epochs of the epoch's own value: the host's speed moves by several
// percent for seconds at a time, and a median over short-lived epochs
// shrugs off the one or two that met a slow spell where a percentile
// over all ops pooled would land inside them.
func untracedRun(d time.Duration, log io.Writer, one epochFunc) (result, *report, error) {
	var res result
	var setup, p50, p90, ops, cpu, allocs []float64
	samples := 0
	for i := 0; i < epochs; i++ {
		e, err := one(benchWorkers, d/epochs, nil)
		if err != nil {
			return res, nil, fmt.Errorf("epoch %d: %w", i, err)
		}
		res.Attempted += e.attempted
		res.Failed += e.failed
		if len(e.opMS) == 0 {
			return res, nil, fmt.Errorf("epoch %d: no op completed in %v", i, d/epochs)
		}
		sort.Float64s(e.opMS)
		samples += len(e.opMS)
		fmt.Fprintf(log, "epoch %d: setup %.3f s, %d ops, p50 %.3f ms, p90 %.3f ms, %.3f ops/s, %.3f cpu ms/op, %.1f allocs/op\n",
			i, e.setupS, len(e.opMS), percentile(e.opMS, 50), percentile(e.opMS, 90), e.opsPerS, e.cpuMSPerOp, e.allocsPerOp)
		setup = append(setup, e.setupS)
		p50 = append(p50, percentile(e.opMS, 50))
		p90 = append(p90, percentile(e.opMS, 90))
		ops = append(ops, e.opsPerS)
		cpu = append(cpu, e.cpuMSPerOp)
		allocs = append(allocs, e.allocsPerOp)
	}
	res.Correct = res.Failed == 0
	logSamples(log, "op_ms", samples, 90)
	rep := newReport()
	rep.set("setup_s", median(setup), "s")
	rep.set("op_ms_p50", median(p50), "ms")
	rep.set("op_ms_p90", median(p90), "ms")
	rep.set("ops_per_s", median(ops), "1/s")
	rep.set("cpu_ms_per_op", median(cpu), "ms")
	rep.set("allocs_per_op", median(allocs), "count")
	rep.set("ok_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
	return res, rep, nil
}

// logSamples states a latency sample's size and whether the percentile
// reported from it keeps the rule of at least ten samples beyond it.
func logSamples(log io.Writer, name string, n int, reported float64) {
	highest, _ := highestPercentile(n)
	fmt.Fprintf(log, "%s: %d samples in all, %d of them beyond p%g (highest percentile with >= 10 beyond: p%g)\n",
		name, n, samplesBeyond(n, reported), reported, highest)
}
