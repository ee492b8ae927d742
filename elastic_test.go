package repro_test

import (
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

// These tests pin the elastic worker pool's public contract: a Runtime
// built with WithWorkers(min) and WithMaxWorkers(max) grows under
// burst load, completes it, and quiesces back to min live workers and
// ~0 CPU when the load is gone. The scheduler-level protocol tests
// live in internal/sched, and the retire/respawn churn test in
// internal/nested; these exercise the same machinery end-to-end
// through the supported API, the way README presents it.

// elasticRT builds a min..max pool on the default retirement threshold;
// the quiescence assertions below poll for the floor rather than sleep
// for a fixed retirement window.
func elasticRT(t *testing.T, min, max int) *repro.Runtime {
	t.Helper()
	rt := repro.NewRuntime(repro.WithWorkers(min), repro.WithMaxWorkers(max), repro.WithSeed(3))
	t.Cleanup(func() { rt.Close() })
	return rt
}

// cpuTime returns the process's cumulative user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestElasticRuntimeQuiescesToFloor is the acceptance criterion of the
// elastic pool in public-API form: a 1..8 Runtime that just served a
// burst sheds the extra workers — Stats.Workers returns to 1, with the
// movement visible in SpawnedWorkers/RetiredWorkers — and then idles
// at ~0 CPU.
func TestElasticRuntimeQuiescesToFloor(t *testing.T) {
	rt := elasticRT(t, 1, 8)

	// A storm of concurrent computations (injected roots) is the spawn
	// signal; 16 lanes over an 8-worker ceiling keeps the backlog
	// sustained while the pool ramps.
	res := workload.Burst(rt.Nested(), workload.BurstConfig{
		Leaves: 512, Storms: 3, Lanes: 16, Gap: time.Millisecond,
	})
	if res.Workers < 2 {
		t.Fatalf("burst never grew the pool (peak workers = %d)", res.Workers)
	}
	st := rt.Stats()
	if st.SpawnedWorkers == 0 {
		t.Fatalf("Stats.SpawnedWorkers = 0 after the pool demonstrably grew to %d", res.Workers)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		st = rt.Stats()
		if st.Workers == 1 && st.Parked == 1 && st.RetiredWorkers == st.SpawnedWorkers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runtime did not quiesce to the floor: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	if testing.Short() {
		return // the CPU half is timing-based
	}
	start := cpuTime()
	time.Sleep(300 * time.Millisecond)
	if used, limit := cpuTime()-start, 30*time.Millisecond; used > limit {
		t.Fatalf("idle elastic Runtime used %v CPU over 300ms (limit %v)", used, limit)
	}
}

// TestElasticBurstSpawnsCompletesAndQuiesces pins the structural half
// of the elastic pool's contract on the bursty workload: the burst
// grows the pool, every burst computation completes (each Run executes
// its root, its final and the 2·(Leaves−1) asyncs of its binary fanin:
// 2·Leaves vertices), and the pool then quiesces to its floor with
// spawned == retired. Throughput against a fixed-max pool is a
// measurement, not an invariant; `ppopp17bench -fig burst` reports it.
func TestElasticBurstSpawnsCompletesAndQuiesces(t *testing.T) {
	const max = 4
	rt := elasticRT(t, 1, max)
	before := rt.Stats()
	res := workload.Burst(rt.Nested(), workload.BurstConfig{
		Leaves: 1024, Storms: 4, Lanes: 2 * max, Gap: 2 * time.Millisecond,
	})
	st := rt.Stats()
	if st.SpawnedWorkers == 0 {
		t.Fatalf("burst never spawned a worker: %+v", st)
	}
	if got, want := st.Executed-before.Executed, 2*res.N; got != want {
		t.Fatalf("burst executed %d vertices, want %d (incomplete computations)", got, want)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st = rt.Stats()
		if st.Workers == 1 && st.Parked == 1 && st.RetiredWorkers == st.SpawnedWorkers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runtime did not quiesce to the floor: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMaxWorkersValidation: a ceiling below the floor is a
// configuration bug and must fail loudly at construction.
func TestMaxWorkersValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithMaxWorkers below WithWorkers did not panic")
		}
	}()
	repro.NewRuntime(repro.WithWorkers(4), repro.WithMaxWorkers(2))
}

// TestFixedPoolReportsNoMovement: without WithMaxWorkers nothing
// changes — Workers is constant and the movement counters stay zero.
func TestFixedPoolReportsNoMovement(t *testing.T) {
	rt := repro.NewRuntime(repro.WithWorkers(2), repro.WithSeed(5))
	defer rt.Close()
	for i := 0; i < 10; i++ {
		if err := rt.Run(func(c *repro.Ctx) {
			c.ParallelFor(0, 128, 8, func(int) {})
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.Workers != 2 || rt.Workers() != 2 || st.SpawnedWorkers != 0 || st.RetiredWorkers != 0 {
		t.Fatalf("fixed pool moved: Workers() = %d, %+v", rt.Workers(), st)
	}
}
