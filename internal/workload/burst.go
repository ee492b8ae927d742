package workload

import (
	"sync"
	"time"

	"repro/internal/nested"
)

// BurstConfig parameterizes the bursty service kernel (Burst).
type BurstConfig struct {
	// Leaves is the fanin leaf count of each lane's computation.
	Leaves uint64
	// Storms is the number of fan-out storms (≥ 1).
	Storms int
	// Lanes is how many independent computations each storm injects
	// concurrently (concurrent Runs — injected roots, the traffic
	// shape of a multi-tenant service under load). The elastic pool's
	// spawn signal is injector backlog, so Lanes above the pool ceiling
	// keeps the backlog sustained while a storm ramps up.
	Lanes int
	// Gap is the idle window between storms. Gaps shorter than the
	// pool's retirement threshold keep an elastic pool warm across
	// storms; longer gaps force a full shrink/regrow cycle per storm.
	Gap time.Duration
}

// Burst runs the bursty service kernel: Storms fan-out storms
// separated by idle gaps. Each storm launches Lanes concurrent Runs —
// each a recursive binary fanin with Leaves leaves — and joins them
// all before idling. This is the workload where a fixed pool cannot
// win both ways: sized for the storm it holds peak workers (deques,
// stacks, steal-loop participants) through every gap, sized for the
// gap it loses storm throughput; an elastic pool is expected to track
// the load (ROADMAP "Elastic worker pool").
//
// Result accounting: Elapsed sums only the storm (busy) windows, so
// OpsPerSec is comparable across pool configurations regardless of
// Gap; Workers reports the peak live worker count observed at storm
// ends — the per-core normalization that makes an over-provisioned
// fixed pool pay for its idle residents; N is the total leaf count
// across all lanes and storms.
func Burst(rt *nested.Runtime, cfg BurstConfig) Result {
	if cfg.Storms < 1 {
		cfg.Storms = 1
	}
	if cfg.Lanes < 1 {
		cfg.Lanes = 1
	}
	v0 := rt.Dag().VertexCount()
	peak := rt.Workers()
	var busy time.Duration
	errs := make([]error, cfg.Lanes)
	for storm := 0; storm < cfg.Storms; storm++ {
		if storm > 0 && cfg.Gap > 0 {
			time.Sleep(cfg.Gap)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for lane := 0; lane < cfg.Lanes; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				errs[lane] = rt.Run(func(c *nested.Ctx) { fanin(c, cfg.Leaves, 0) })
			}(lane)
		}
		wg.Wait()
		busy += time.Since(start)
		for _, err := range errs {
			mustRun("burst", err)
		}
		if w := rt.Workers(); w > peak {
			peak = w
		}
	}
	lanesTotal := uint64(cfg.Storms) * uint64(cfg.Lanes)
	return Result{
		Name:       "burst",
		N:          lanesTotal * cfg.Leaves,
		Elapsed:    busy,
		CounterOps: lanesTotal * faninOps(cfg.Leaves),
		Vertices:   rt.Dag().VertexCount() - v0,
		Workers:    peak,
	}
}
