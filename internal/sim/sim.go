package sim

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/counter"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Arrival is one computation submitted to the simulated injector: a
// binary spawn tree of the given depth arriving at the given tick
// (ticks start at 0; arrivals must be sorted by Tick). A computation
// of depth D executes exactly 2^(D+1) vertices.
type Arrival struct {
	Tick  int
	Depth int
}

// Config describes one simulation run. The zero values of the tuning
// fields pick the defaults noted on each; Workers and Arrivals are
// required.
type Config struct {
	Workers    int // pool floor: live workers at tick 0 (required, ≥ 1)
	MaxWorkers int // pool ceiling; > Workers makes the pool elastic (0 = Workers, fixed)
	Topo       topology.Topology
	Seed       uint64
	Arrivals   []Arrival

	// RetireAfterTicks is the simulated retirement window: how many
	// ticks a worker above the floor stays parked before it retires
	// (0 = 32).
	RetireAfterTicks int
	// PromoteContention is the adaptive-counter promotion threshold fed
	// to counter.ContentionStep (0 = counter.DefaultContention).
	PromoteContention uint64
	// Batch models the batched counter frontend (counter spec
	// adaptive:K:batch): once a computation's counter has promoted,
	// each worker buffers its touches on that counter and only every
	// Batch-th one registers as a shared-counter touch — the same-tick
	// collision set (and therefore the contention cliff) shrinks by the
	// batch factor. Buffered touches flush when the worker goes idle,
	// as the real scheduler's boundary flush does. 0 or 1 disables
	// batching and leaves every run byte-identical to the unbatched
	// simulator (the exact-gate baseline).
	Batch uint64
	// MaxTicks bounds the run; hitting it sets Result.Truncated
	// (0 = 1<<20).
	MaxTicks int
	// Trace, when non-nil, receives the per-event trace (one line per
	// event; byte-identical across runs of an equal Config).
	Trace io.Writer
}

// TickStats is one tick's aggregate activity in the timeline.
type TickStats struct {
	Tick         int
	Executed     int
	LocalSteals  int
	RemoteSteals int
	Spawns       int
	Retires      int
	Promotions   int
	Live         int // live workers at end of tick
	Parked       int // parked workers at end of tick
	Backlog      int // injector depth at end of tick
}

// Result is the outcome of one simulation run. All fields are
// deterministic functions of the Config.
type Result struct {
	Ticks        int
	Executed     uint64
	Steals       uint64 // LocalSteals + RemoteSteals
	LocalSteals  uint64
	RemoteSteals uint64
	Spawned      uint64
	Retired      uint64
	Promotions   uint64
	PeggedTicks  int // ticks the elastic pool spent at its ceiling with backlog pressure
	PeakLive     int
	SteadyLive   int // live workers after quiesce (== pool floor on a clean run)
	MaxBacklog   int
	Timeline     []TickStats
	Truncated    bool // hit MaxTicks before quiescing

	// Batched-frontend model outcome. CounterRMWs counts registered
	// shared-counter touches, LocalIncs touches buffered worker-locally
	// (0 unless Config.Batch ≥ 2), and MaxColliders the largest
	// same-tick collision set any counter saw — the contention cliff
	// the batch threshold exists to move. New outcome fields only: the
	// timeline and every pre-batch field are unchanged at any Batch.
	CounterRMWs  uint64
	LocalIncs    uint64
	MaxColliders int
	// CounterMisses is the total modeled CAS-miss charge across all
	// counters (Σ colliders−1 per same-tick collision window, the
	// ContentionStep accounting) — the cliff statistic MaxColliders
	// alone cannot show, because a batched run's one residual
	// drain-boundary flush burst can dominate the max while the
	// sustained per-tick collision load has collapsed.
	CounterMisses uint64
}

// RenderTimeline formats the timeline as a fixed-width table, one line
// per tick — the "timeline artifact" the golden test pins byte-for-byte.
func (r Result) RenderTimeline() string {
	out := "tick exec lsteal rsteal spawn retire promote live parked backlog\n"
	for _, t := range r.Timeline {
		out += fmt.Sprintf("%4d %4d %6d %6d %5d %6d %7d %4d %6d %7d\n",
			t.Tick, t.Executed, t.LocalSteals, t.RemoteSteals, t.Spawns,
			t.Retires, t.Promotions, t.Live, t.Parked, t.Backlog)
	}
	return out
}

// vtx is one simulated vertex: a node of computation comp's binary
// spawn tree at the given depth, or the computation's final vertex.
type vtx struct {
	comp  int
	depth int
	final bool
}

// comp is one computation's progress: the tree depth, the count of
// tree vertices not yet executed, and the adaptive-counter model.
type comp struct {
	depth     int
	remaining int // tree vertices left (2^(depth+1)−1 at arrival)
	done      bool

	misses   uint64
	promoted bool
	touches  int // workers that touched this comp's counter this tick
}

// simWorker is one simulated worker slot. The scheduling-state fields
// mirror internal/sched's worker.
type simWorker struct {
	id, node int
	g        *rng.Xoshiro256ss
	local    []int // same-node victim ids, sched.New's construction
	remote   []int

	live       bool
	parked     bool
	parkTicks  int
	idleRounds int
	queue      []vtx // owner deque: push/pop at the end, steal from the front

	executed     uint64
	localSteals  uint64
	remoteSteals uint64

	// pend is the worker's buffered touches per promoted computation
	// (the batched-frontend delta slots, Config.Batch ≥ 2). Keyed by
	// comp index; only ever read by key, so map order cannot leak into
	// the deterministic trace.
	pend map[int]uint64
}

// state is the whole simulation.
type state struct {
	cfg     Config
	workers []*simWorker
	comps   []*comp
	inj     []vtx // injector FIFO
	arrIdx  int

	nlive     int
	nparked   int
	pressure  int32
	pegged    bool
	liveComps int

	res     Result
	tick    TickStats
	touched []int // comps touched this tick (indices into comps)
}

// Run executes the simulation to quiescence: all arrivals delivered,
// every computation finished, and — on an elastic pool — the extra
// workers retired back to the floor.
func Run(cfg Config) (Result, error) {
	if cfg.Workers < 1 {
		return Result{}, fmt.Errorf("sim: Workers must be ≥ 1, got %d", cfg.Workers)
	}
	if cfg.MaxWorkers == 0 {
		cfg.MaxWorkers = cfg.Workers
	}
	if cfg.MaxWorkers < cfg.Workers {
		return Result{}, fmt.Errorf("sim: MaxWorkers %d below Workers %d", cfg.MaxWorkers, cfg.Workers)
	}
	if cfg.RetireAfterTicks <= 0 {
		cfg.RetireAfterTicks = 32
	}
	if cfg.MaxTicks <= 0 {
		cfg.MaxTicks = 1 << 20
	}
	if cfg.Topo.IsZero() {
		cfg.Topo = topology.Flat(cfg.MaxWorkers)
	}
	for i := 1; i < len(cfg.Arrivals); i++ {
		if cfg.Arrivals[i].Tick < cfg.Arrivals[i-1].Tick {
			return Result{}, fmt.Errorf("sim: arrivals not sorted by tick")
		}
	}

	s := &state{cfg: cfg, nlive: cfg.Workers}
	s.workers = make([]*simWorker, cfg.MaxWorkers)
	for i := range s.workers {
		s.workers[i] = &simWorker{
			id: i, node: cfg.Topo.NodeOf(i),
			g:    rng.NewXoshiro(cfg.Seed + uint64(i)*0x9e37),
			live: i < cfg.Workers,
		}
	}
	for _, w := range s.workers {
		for _, v := range s.workers {
			if v == w {
				continue
			}
			if v.node == w.node {
				w.local = append(w.local, v.id)
			} else {
				w.remote = append(w.remote, v.id)
			}
		}
	}
	s.res.PeakLive = s.nlive

	for tick := 0; ; tick++ {
		if tick >= cfg.MaxTicks {
			s.res.Truncated = true
			break
		}
		s.tick = TickStats{Tick: tick}

		// Deliver this tick's arrivals: each submission pushes the
		// computation root into the injector and makes one wake attempt,
		// exactly as Submit → signalWork.
		for s.arrIdx < len(cfg.Arrivals) && cfg.Arrivals[s.arrIdx].Tick == tick {
			a := cfg.Arrivals[s.arrIdx]
			s.arrIdx++
			c := &comp{depth: a.Depth, remaining: (2 << a.Depth) - 1}
			s.comps = append(s.comps, c)
			s.liveComps++
			s.inj = append(s.inj, vtx{comp: len(s.comps) - 1})
			s.trace("t%d a c%d d%d", tick, len(s.comps)-1, a.Depth)
			s.signalWork(tick)
		}

		// One action per live worker, in id order.
		for _, w := range s.workers {
			if !w.live {
				continue
			}
			if w.parked {
				s.parkedStep(w, tick)
				continue
			}
			s.step(w, tick)
		}

		// Adaptive-counter model: the workers that touched one
		// computation's counter within this tick are concurrent.
		for _, ci := range s.touched {
			c := s.comps[ci]
			if c.touches > s.res.MaxColliders {
				s.res.MaxColliders = c.touches
			}
			var promote bool
			c.misses, promote = counter.ContentionStep(c.misses, c.touches, cfg.PromoteContention)
			if promote && !c.promoted {
				c.promoted = true
				s.res.Promotions++
				s.tick.Promotions++
				s.trace("t%d P c%d", tick, ci)
			}
			c.touches = 0
		}
		s.touched = s.touched[:0]

		if s.pegged {
			s.res.PeggedTicks++
		}

		// No lost wakeup: work in the injector with every live worker
		// parked would be unreachable — the invariant the park/wake
		// protocol exists to keep.
		if len(s.inj) > 0 && s.nparked == s.nlive {
			return s.res, fmt.Errorf("sim: lost wakeup at tick %d: backlog %d with all %d live workers parked",
				tick, len(s.inj), s.nlive)
		}

		s.tick.Live = s.nlive
		s.tick.Parked = s.nparked
		s.tick.Backlog = len(s.inj)
		if len(s.inj) > s.res.MaxBacklog {
			s.res.MaxBacklog = len(s.inj)
		}
		if s.nlive > s.res.PeakLive {
			s.res.PeakLive = s.nlive
		}
		s.res.Timeline = append(s.res.Timeline, s.tick)
		s.res.Ticks = tick + 1

		workDone := s.arrIdx == len(cfg.Arrivals) && len(s.inj) == 0 && s.liveComps == 0
		if workDone && s.nlive == cfg.Workers {
			break
		}
	}

	// Terminal drain: the simulator's quiesce condition is vertex
	// counts, so a run can end with touches still buffered in worker
	// slots. The real runtime cannot — a finish block's zero report is
	// delivered BY those flushes — so model the final FlushAll burst
	// here: one more same-instant collision window, in worker id and
	// comp order (no-op at Batch ≤ 1, where nothing ever buffers).
	for _, w := range s.workers {
		s.flushPend(w)
	}
	for _, ci := range s.touched {
		c := s.comps[ci]
		if c.touches > s.res.MaxColliders {
			s.res.MaxColliders = c.touches
		}
		c.misses, _ = counter.ContentionStep(c.misses, c.touches, cfg.PromoteContention)
		c.touches = 0
	}
	s.touched = s.touched[:0]

	for _, w := range s.workers {
		s.res.Executed += w.executed
		s.res.LocalSteals += w.localSteals
		s.res.RemoteSteals += w.remoteSteals
	}
	for _, c := range s.comps {
		s.res.CounterMisses += c.misses
	}
	s.res.Steals = s.res.LocalSteals + s.res.RemoteSteals
	s.res.SteadyLive = s.nlive
	return s.res, nil
}

func (s *state) trace(format string, args ...interface{}) {
	if s.cfg.Trace != nil {
		fmt.Fprintf(s.cfg.Trace, format+"\n", args...)
	}
}

// signalWork is the producer side of the park/spawn protocol, as
// sched.signalWork: wake one parked worker, else feed the elastic
// spawn signal.
func (s *state) signalWork(tick int) {
	if s.wakeOne(tick) {
		if s.elastic() {
			s.pressure = 0
			s.pegged = false
		}
		return
	}
	if !s.elastic() {
		return
	}
	next, signal := sched.SpawnPressureStep(len(s.inj), s.pressure)
	s.pressure = next
	switch signal {
	case sched.SignalIdle:
		s.pegged = false
	case sched.SignalSpawn:
		s.trySpawn(tick)
	}
}

func (s *state) elastic() bool { return s.cfg.MaxWorkers > s.cfg.Workers }

// wakeOne claims the lowest-id parked worker, mirroring sched.wakeOne's
// slot-order scan.
func (s *state) wakeOne(tick int) bool {
	if s.nparked == 0 {
		return false
	}
	for _, w := range s.workers {
		if w.live && w.parked {
			w.parked = false
			w.parkTicks = 0
			w.idleRounds = 0
			s.nparked--
			s.trace("t%d w%d k", tick, w.id)
			return true
		}
	}
	return false
}

// trySpawn claims a dormant slot via SpawnPlacement, or counts the
// pool pegged at its ceiling.
func (s *state) trySpawn(tick int) {
	if s.nlive >= s.cfg.MaxWorkers {
		s.pegged = true
		return
	}
	nodeOf := make([]int, len(s.workers))
	dormant := make([]bool, len(s.workers))
	load := make([]int, s.cfg.Topo.Nodes())
	for i, w := range s.workers {
		nodeOf[i] = w.node
		if w.live {
			load[w.node]++
		} else {
			dormant[i] = true
		}
	}
	i := sched.SpawnPlacement(nodeOf, dormant, load)
	if i < 0 {
		return
	}
	w := s.workers[i]
	w.live = true
	w.parked = false
	w.parkTicks = 0
	w.idleRounds = 0
	w.queue = w.queue[:0]
	s.nlive++
	s.res.Spawned++
	s.tick.Spawns++
	s.trace("t%d + w%d", tick, i)
}

// parkedStep ages one parked worker: above the floor, a full
// retirement window with no wake retires the slot (RetireEligible).
func (s *state) parkedStep(w *simWorker, tick int) {
	w.parkTicks++
	if !s.elastic() || w.parkTicks < s.cfg.RetireAfterTicks || !sched.RetireEligible(s.nlive, s.cfg.Workers) {
		return
	}
	w.live = false
	w.parked = false
	s.nparked--
	s.nlive--
	s.res.Retired++
	s.tick.Retires++
	s.trace("t%d - w%d", tick, w.id)
}

// step is one unparked worker's action for the tick.
func (s *state) step(w *simWorker, tick int) {
	// Own deque bottom, then the injector FIFO.
	if n := len(w.queue); n > 0 {
		v := w.queue[n-1]
		w.queue = w.queue[:n-1]
		s.execute(w, v, tick)
		return
	}
	if len(s.inj) > 0 {
		v := s.inj[0]
		s.inj = s.inj[1:]
		s.execute(w, v, tick)
		return
	}
	if s.stealRound(w, w.local, 0, tick) || s.stealRound(w, w.remote, 1, tick) {
		return
	}
	s.idle(w, tick)
}

// execute runs one vertex: tree vertices spawn their children onto the
// executing worker's deque (each push making one wake attempt, as the
// real push → signalWork); the last tree vertex of a computation
// schedules its final.
func (s *state) execute(w *simWorker, v vtx, tick int) {
	w.idleRounds = 0
	w.executed++
	s.tick.Executed++
	c := s.comps[v.comp]
	if s.cfg.Batch > 1 && c.promoted {
		// Batched frontend: the touch lands in the worker's delta slot;
		// only the Batch-th buffered touch registers on the shared
		// counter. Pre-promotion touches always register — the batch
		// tier only exists behind a promoted counter.
		if w.pend == nil {
			w.pend = make(map[int]uint64)
		}
		w.pend[v.comp]++
		s.res.LocalIncs++
		if w.pend[v.comp] >= s.cfg.Batch {
			w.pend[v.comp] = 0
			s.registerTouch(v.comp)
		}
	} else {
		s.registerTouch(v.comp)
	}
	if v.final {
		c.done = true
		s.liveComps--
		s.trace("t%d w%d x c%d F", tick, w.id, v.comp)
		return
	}
	s.trace("t%d w%d x c%d d%d", tick, w.id, v.comp, v.depth)
	if v.depth < c.depth {
		w.queue = append(w.queue, vtx{comp: v.comp, depth: v.depth + 1})
		s.signalWork(tick)
		w.queue = append(w.queue, vtx{comp: v.comp, depth: v.depth + 1})
		s.signalWork(tick)
	}
	c.remaining--
	if c.remaining == 0 {
		w.queue = append(w.queue, vtx{comp: v.comp, final: true})
		s.signalWork(tick)
	}
}

// registerTouch records one shared-RMW touch on a computation's
// counter: the unit the same-tick contention resolution counts.
func (s *state) registerTouch(ci int) {
	c := s.comps[ci]
	if c.touches == 0 {
		s.touched = append(s.touched, ci)
	}
	c.touches++
	s.res.CounterRMWs++
}

// flushPend drains the worker's buffered counter touches — the
// scheduler's out-of-work boundary flush. Each non-empty slot costs
// one shared RMW regardless of how many touches it coalesced. Slots
// flush in comp order, not map order: the trace's byte-identity
// promise must survive batching.
func (s *state) flushPend(w *simWorker) {
	if len(w.pend) == 0 {
		return
	}
	var keys []int
	for ci, n := range w.pend {
		if n > 0 {
			keys = append(keys, ci)
		}
	}
	sort.Ints(keys)
	for _, ci := range keys {
		w.pend[ci] = 0
		s.registerTouch(ci)
	}
}

// idle is one failed find-work round: climb the spin→yield→park
// ladder. A worker parking on an elastic pool withdraws the pegged
// signal, as sched.park does — idleness is direct evidence the backlog
// is not saturating the pool.
func (s *state) idle(w *simWorker, tick int) {
	s.flushPend(w)
	w.idleRounds++
	if sched.IdleStep(w.idleRounds) == sched.IdlePark {
		w.parked = true
		w.parkTicks = 0
		s.nparked++
		if s.elastic() {
			s.pegged = false
		}
		s.trace("t%d w%d p", tick, w.id)
	}
}

// stealRound is one steal round: a cyclic walk over the victim list,
// taking the first non-empty victim's oldest vertex. phase 0
// credits local, 1 remote.
func (s *state) stealRound(w *simWorker, victims []int, phase, tick int) bool {
	n := len(victims)
	if n == 0 {
		return false
	}
	start := sched.VictimWalk(w.g, n)
	for attempt := 0; attempt < n; attempt++ {
		vic := s.workers[victims[sched.WalkVictim(start, attempt, n)]]
		if len(vic.queue) == 0 {
			continue
		}
		v := vic.queue[0]
		vic.queue = vic.queue[1:]
		if phase == 0 {
			w.localSteals++
			s.tick.LocalSteals++
			s.trace("t%d w%d sl v%d", tick, w.id, vic.id)
		} else {
			w.remoteSteals++
			s.tick.RemoteSteals++
			s.trace("t%d w%d sr v%d", tick, w.id, vic.id)
		}
		s.execute(w, v, tick)
		return true
	}
	return false
}
