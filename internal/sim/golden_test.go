package sim_test

// Golden trace determinism: same seed + same config ⇒ byte-identical
// event trace and timeline artifact, across runs and across
// GOMAXPROCS {1, 4} (the matrix CI runs). The golden file pins the
// bytes across commits as well, so a scheduling-model change that
// shifts any event shows up as a reviewable diff, not a silent drift
// of the gated tables. UPDATE_GOLDEN=1 regenerates (the gateway
// golden convention).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// goldenConfig is small enough to keep the trace reviewable yet covers
// the interesting machinery: a multi-node topology (remote steals), an
// elastic pool (spawn/retire), both arrival batching and a quiesce
// tail.
func goldenConfig() sim.Config {
	return sim.Config{
		Workers:          2,
		MaxWorkers:       4,
		Topo:             topology.Synthetic(2, 2),
		Seed:             1,
		RetireAfterTicks: 8,
		Arrivals: []sim.Arrival{
			{Tick: 0, Depth: 3}, {Tick: 0, Depth: 3}, {Tick: 0, Depth: 2},
			{Tick: 1, Depth: 3},
		},
	}
}

func renderGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg := goldenConfig()
	cfg.Trace = &buf
	// The header names the stealing protocol the trace was cut on, as
	// the committed golden always has.
	buf.WriteString("== policy chase-lev ==\n")
	r, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "-- timeline --\n%s", r.RenderTimeline())
	fmt.Fprintf(&buf, "-- summary --\nticks=%d executed=%d steals=%d local=%d remote=%d spawned=%d retired=%d promotions=%d peak=%d steady=%d\n",
		r.Ticks, r.Executed, r.Steals, r.LocalSteals, r.RemoteSteals,
		r.Spawned, r.Retired, r.Promotions, r.PeakLive, r.SteadyLive)
	return buf.Bytes()
}

func TestGoldenTraceDeterminism(t *testing.T) {
	path := filepath.Join("testdata", "sim_trace.golden")

	// Across GOMAXPROCS: the sim is one goroutine, so the Go
	// scheduler's parallelism must be invisible to it.
	prev := runtime.GOMAXPROCS(1)
	at1 := renderGolden(t)
	runtime.GOMAXPROCS(4)
	at4 := renderGolden(t)
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(at1, at4) {
		t.Fatal("trace differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
	// Across runs in one process (fresh RNGs each run).
	if again := renderGolden(t); !bytes.Equal(at1, again) {
		t.Fatal("trace differs between two runs of an identical config")
	}

	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, at1, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(at1, want) {
		t.Fatalf("golden mismatch for %s (UPDATE_GOLDEN=1 regenerates; a diff here is a scheduling-model change)\n--- got ---\n%s\n--- want ---\n%s",
			path, at1, want)
	}
}
