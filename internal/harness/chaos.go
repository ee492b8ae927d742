package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/gateway"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The chaos recovery-timeline experiment (`ppopp17bench -fig chaos`,
// not a figure of the paper): an in-process gateway under steady
// closed-loop load is handed one hostile request — the wedge template,
// a task body that busy-spins ignoring cancellation — with a deadline
// far shorter than its spin. The timeline shows the whole self-defense
// arc tick by tick: healthy throughput, the inject, the hung-request
// reaper force-failing the wedged request (504) and recovering its
// dispatcher slot, the degraded hold-down shedding new admissions
// (503 + jittered Retry-After), and throughput returning once the
// gateway has been healthy for a full hold-down window.
//
// The wedge template needs no build tag: it is a hostile workload, not
// an injected fault, so this figure runs on a stock production build —
// the same self-defense machinery the chaostest fault matrix drives
// from the inside.

// chaosParams fixes the timeline's clock. Everything downstream —
// which tick the reap lands on, how long degraded mode holds — is a
// consequence of these and the gateway's fuses.
type chaosParams struct {
	tick          time.Duration // timeline resolution
	ticks         int           // timeline length
	inject        int           // tick at which the wedge is submitted
	spinUS        uint64        // per-request service time of the background load
	wedgeMS       uint64        // wedge spin length (ms, ignores cancellation)
	wedgeDeadline time.Duration // wedge request deadline (≪ its spin)
	reapGrace     time.Duration // gateway ReapGrace
	holdDown      time.Duration // gateway DegradedHoldDown
}

func chaosPlan(quick bool) chaosParams {
	p := chaosParams{
		tick:          25 * time.Millisecond,
		ticks:         40,
		inject:        8,
		spinUS:        2000,
		wedgeMS:       300,
		wedgeDeadline: 50 * time.Millisecond,
		reapGrace:     50 * time.Millisecond,
		holdDown:      200 * time.Millisecond,
	}
	if quick {
		p.tick = 20 * time.Millisecond
		p.ticks = 24
		p.inject = 4
		p.wedgeMS = 200
		p.holdDown = 150 * time.Millisecond
	}
	return p
}

// chaosTickSample is one row of the recovery timeline.
type chaosTickSample struct {
	completed int64 // spin requests completed during this tick
	shed      int64 // admissions refused during this tick (any 4xx/5xx shed)
	reaped    uint64
	degraded  bool
}

// Chaos runs the recovery-timeline experiment. The timeline is a
// single run by construction (averaging would smear the phase
// boundaries the figure exists to show); Runs is ignored.
func Chaos(o Options) (*Report, error) {
	o = o.fill()
	workload.CalibrateWork()
	p := chaosPlan(o.Quick)

	// Two workers minimum: on a single worker the wedge's spin starves
	// the background load outright and the timeline conflates CPU theft
	// with admission sheds.
	workers := max(o.MaxProcs, 2)

	reg := gateway.Builtins()
	if err := reg.Register(gateway.WedgeTemplate()); err != nil {
		return nil, err
	}
	g := gateway.New(gateway.Config{
		RuntimeOptions:   []repro.Option{repro.WithWorkers(workers), repro.WithSeed(1)},
		Registry:         reg,
		Dispatchers:      2 * workers,
		QueueDepth:       4 * workers,
		ReapGrace:        p.reapGrace,
		DegradedHoldDown: p.holdDown,
		JitterSeed:       1,
	})
	defer g.Close()

	o.progress("chaos: %d ticks × %v, wedge at tick %d (spin %dms, deadline %v, grace %v, hold-down %v)",
		p.ticks, p.tick, p.inject, p.wedgeMS, p.wedgeDeadline, p.reapGrace, p.holdDown)

	var (
		okTick   = make([]atomic.Int64, p.ticks)
		shedTick = make([]atomic.Int64, p.ticks)
		errCount atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	start := time.Now()
	tickOf := func() int { return int(time.Since(start) / p.tick) }

	// Background load: closed-loop clients, enough of them to keep the
	// gateway busy but not saturated, so a healthy tick has a stable
	// nonzero completion count for the degraded dip to contrast with.
	for i := 0; i < 2*workers; i++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*p.tick)
				_, err := g.Submit(ctx, tenant, "spin", p.spinUS)
				cancel()
				idx := tickOf()
				if idx >= p.ticks {
					return
				}
				var shed *gateway.ShedError
				var deg *gateway.DegradedError
				switch {
				case err == nil:
					okTick[idx].Add(1)
				case errors.As(err, &deg) || errors.As(err, &shed) || errors.Is(err, gateway.ErrDraining):
					shedTick[idx].Add(1)
					// Honor the spirit of Retry-After without sitting out
					// the whole hold-down: back off briefly so the shed
					// counter samples the window rather than melting it.
					time.Sleep(p.tick / 8)
				default:
					errCount.Add(1)
					time.Sleep(p.tick / 8)
				}
			}
		}(fmt.Sprintf("tenant-%d", i%4))
	}

	// The inject: one wedge request whose deadline expires mid-spin.
	// The reaper must 504 it at deadline+grace; its Submit returning
	// ErrHung is the client-visible half of the reap.
	wedgeErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		timer := time.NewTimer(time.Duration(p.inject) * p.tick)
		defer timer.Stop()
		select {
		case <-stop:
			wedgeErr <- fmt.Errorf("harness: timeline ended before the inject tick")
			return
		case <-timer.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.wedgeDeadline)
		defer cancel()
		_, err := g.Submit(ctx, "chaos", "wedge", p.wedgeMS)
		wedgeErr <- err
	}()

	// Sample the gateway at every tick boundary.
	timeline := make([]chaosTickSample, p.ticks)
	for t := 0; t < p.ticks; t++ {
		time.Sleep(time.Until(start.Add(time.Duration(t+1) * p.tick)))
		s := g.Stats()
		timeline[t].reaped = s.Reaped
		timeline[t].degraded = s.Degraded
	}
	close(stop)
	wg.Wait()
	for t := range timeline {
		timeline[t].completed = okTick[t].Load()
		timeline[t].shed = shedTick[t].Load()
	}

	if err := <-wedgeErr; !errors.Is(err, gateway.ErrHung) {
		return nil, fmt.Errorf("harness: wedge request returned %v, want ErrHung — the reaper did not fire", err)
	}
	if n := errCount.Load(); n > 0 {
		return nil, fmt.Errorf("harness: %d background requests failed with non-shed errors", n)
	}
	final := g.Stats()

	// Phase boundaries, read off the sampled timeline.
	detect := -1 // first tick with a reap on the books
	recov := -1  // first post-detect tick that is healthy and completing again
	for t, s := range timeline {
		if detect < 0 && s.reaped > 0 {
			detect = t
		}
		if detect >= 0 && recov < 0 && t > detect && !s.degraded && s.completed > 0 {
			recov = t
		}
	}
	if detect < 0 {
		return nil, fmt.Errorf("harness: no reap observed within the timeline")
	}

	rep := &Report{
		Figure: "Chaos",
		Title:  "Self-defense recovery timeline: wedged request → reap (504) → degraded (503) → recovered",
	}
	tbl := stats.NewTable(
		fmt.Sprintf("chaos (spin %dµs load, %d workers, tick %v): recovery timeline", p.spinUS, workers, p.tick),
		"tick", "t", "completed", "shed", "degraded", "event")
	for t, s := range timeline {
		event := ""
		switch t {
		case p.inject:
			event = "← wedge injected"
		case detect:
			event = "← reaped (504), degraded trips"
		case recov:
			event = "← recovered"
		}
		deg := ""
		if s.degraded {
			deg = "yes"
		}
		tbl.AddRow(t, (time.Duration(t+1) * p.tick).String(), s.completed, s.shed, deg, event)
	}
	rep.Tables = append(rep.Tables, tbl)

	var completed, shedTotal int64
	for _, s := range timeline {
		completed += s.completed
		shedTotal += s.shed
	}
	sent := completed + shedTotal
	window := time.Duration(p.ticks) * p.tick
	// The chaos record is outcome-shaped: how the gateway's
	// self-defense handled one injected wedge under background load.
	rep.Blocks = append(rep.Blocks, withCaveat(report.NewBlock().
		In("bench", "chaos").
		In("proc", workers).
		In("n", p.spinUS).
		Out("exectime", fmt.Sprintf("%.6f", window.Seconds())).
		Out("nb_sent", sent).
		Out("nb_completed", completed).
		Out("nb_shed", shedTotal).
		Out("shed_rate", fmt.Sprintf("%.4f", float64(shedTotal)/float64(max(sent, 1)))).
		Out("throughput_req_per_sec", fmt.Sprintf("%.1f", float64(completed)/window.Seconds())).
		Out("nb_reaped", final.Reaped).
		Out("nb_degraded_trips", final.DegradedTrips).
		Out("nb_shed_degraded", final.ShedDegraded).
		Out("recover_tick", recov).
		Out("killed", 0), hostCaveat()))

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("wedge injected at tick %d; reap observed at tick %d (deadline %v + grace %v); degraded hold-down %v shed %d admissions; recovered at tick %s",
			p.inject, detect, p.wedgeDeadline, p.reapGrace, p.holdDown, final.ShedDegraded, tickLabel(recov)),
		"expected shape: flat completions before the inject; the wedge 504s at deadline+grace (nb_reaped = 1) and trips degraded mode; during the hold-down completions dip and sheds spike (503 + jittered Retry-After); after one healthy hold-down the gate lifts and completions return to the pre-inject level")
	return rep, nil
}

func tickLabel(t int) string {
	if t < 0 {
		return "—(not within window)"
	}
	return fmt.Sprintf("%d", t)
}
