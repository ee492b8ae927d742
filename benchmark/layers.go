package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/deque"
	"repro/internal/gateway"
	"repro/internal/rng"
	"repro/internal/sink"
	"repro/internal/snzi"
	"repro/internal/spdag"
)

// The layer cells time each layer's exported functions from outside, in
// isolation: no cell depends on the workload being run, so the same
// cells print next to every workload and a change to one layer moves
// its cells whichever workload the traced run was for. Single-goroutine
// cells report the minimum over their batches (the least-disturbed
// one), 2-goroutine cells the median (contention is the signal, not a
// disturbance).

// growThreshold is the in-counter grow denominator of a 2-worker
// runtime (25·workers, §5), used wherever a cell builds a counter the
// way the runtime would.
const growThreshold = 50

// cellTimer sizes the timing loops: every cell runs `batches` batches
// of at least `batch` each.
type cellTimer struct {
	batch   time.Duration
	batches int
}

// batchesOf calibrates n so that f(n) — which performs n iterations and
// returns how long they took — lasts at least one batch, then returns
// the ns-per-iteration of each batch.
func (ct cellTimer) batchesOf(f func(n int) time.Duration) []float64 {
	n := 1
	f(n) // first call: cold pools and caches, not counted
	for {
		if d := f(n); d >= ct.batch {
			break
		} else if d < ct.batch/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	out := make([]float64, ct.batches)
	for i := range out {
		out[i] = float64(f(n)) / float64(n)
	}
	return out
}

// timed makes a loop that times itself out of one that does not.
func timed(f func(n int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		f(n)
		return time.Since(t0)
	}
}

func (ct cellTimer) min(f func(n int)) float64 { return minOf(ct.batchesOf(timed(f))) }

// pair2 times two goroutines each running its own loop of n
// iterations side by side; the result is ns per iteration of one of
// them, median over batches.
func (ct cellTimer) pair2(f0, f1 func(n int)) float64 {
	return median(ct.batchesOf(timed(func(n int) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); f1(n) }()
		f0(n)
		wg.Wait()
	})))
}

// latencyP50 is the median of n individually timed calls, in µs.
func latencyP50(n int, f func() time.Duration) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(f()) / float64(time.Microsecond)
	}
	return median(xs)
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func layerCells(r *report, ct cellTimer) error {
	snziCells(r, ct)
	coreCells(r, ct)
	if err := counterCells(r, ct); err != nil {
		return err
	}
	dequeCells(r, ct)
	spdagCells(r, ct)
	schedCells(r, ct)
	nestedCells(r, ct)
	if err := gatewayCells(r, ct); err != nil {
		return err
	}
	return sinkCells(r, ct)
}

func snziCells(r *report, ct cellTimer) {
	pair := func(node *snzi.Node) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				node.Arrive()
				node.Depart()
			}
		}
	}
	r.set("snzi.pair_ns_d0", ct.min(pair(snzi.NewTree(0).Root())), "ns")
	_, leaves := snzi.NewFixedTree(0, 4)
	r.set("snzi.pair_ns_d4", ct.min(pair(leaves[0])), "ns")

	// Sibling leaves under a shared root, both from zero surplus: every
	// pair of either goroutine reaches the root.
	tree, sib := snzi.NewFixedTree(0, 1, snzi.WithInstrumentation())
	r.set("snzi.pair_ns_p2", ct.pair2(pair(sib[0]), pair(sib[1])), "ns")
	r.set("snzi.retry_ratio_p2", tree.Instr().Snapshot().FailureRate(), "ratio")

	r.set("snzi.grow_ns", ct.min(func(n int) {
		node := snzi.NewTree(1).Root()
		for i := 0; i < n; i++ {
			if i%1024 == 0 {
				node = snzi.NewTree(1).Root() // keep the spine short
			}
			node, _ = node.Grow(true)
		}
	}), "ns")

	root := snzi.NewTree(1).Root()
	r.set("snzi.weighted_pair_ns", ct.min(func(n int) {
		for i := 0; i < n; i++ {
			root.ArriveRootN(64)
			root.DepartRootN(64)
		}
	}), "ns")
}

// coreChain runs n increment/decrement pairs down a chain of in-counter
// states, the way a spawning task's continuation does: the left state
// carries on, the right one is discharged at once.
func coreChain(s core.State, g *rng.Xoshiro256ss) func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			l, rt := s.Increment(g.Flip(growThreshold))
			rt.Decrement()
			s = l
		}
	}
}

func coreCells(r *report, ct cellTimer) {
	c := core.New(1)
	incs := 0
	chain := coreChain(c.RootState(), rng.NewXoshiro(1))
	r.set("core.inc_dec_ns", ct.min(func(n int) { chain(n); incs += n }), "ns")
	r.set("core.nodes_per_kinc", float64(c.NodeCount()-1)/float64(incs)*1000, "count")

	l, rt := core.New(1).RootState().Increment(true)
	r.set("core.inc_dec_ns_p2", ct.pair2(
		coreChain(l, rng.NewXoshiro(2)), coreChain(rt, rng.NewXoshiro(3))), "ns")
}

// counterSpecs are the counter specs the ledger pins, by the short name
// their metrics carry. Removing one from the program needs a benchmark
// issue first.
var counterSpecs = []struct{ name, spec string }{
	{"fetchadd", "fetchadd"},
	{"dyn", "dyn"},
	{"adaptive", "adaptive"},
	{"batch", "adaptive:32:64"},
}

// counterUser drives counter states the way an sp-dag vertex does:
// through a worker-local Home when the state can buffer there,
// releasing each state after its terminal use.
type counterUser struct {
	g    *rng.Xoshiro256ss
	home *counter.Home
	tag  any
}

func newCounterUser(seed uint64) *counterUser {
	return &counterUser{g: rng.NewXoshiro(seed), home: counter.NewHome(), tag: new(int)}
}

func release(st counter.State) {
	if rel, ok := st.(counter.Releaser); ok {
		rel.Release()
	}
}

func (u *counterUser) inc(st counter.State) (l, r counter.State) {
	if hs, ok := st.(counter.HomedState); ok {
		l, r = hs.IncrementHomed(u.g, u.home, u.tag)
	} else {
		l, r = st.Increment(u.g)
	}
	release(st)
	return l, r
}

func (u *counterUser) dec(st counter.State) (zero bool) {
	if hs, ok := st.(counter.HomedState); ok {
		zero = hs.DecrementHomed(u.home, u.tag)
	} else {
		zero = st.Decrement()
	}
	release(st)
	return zero
}

// chain is coreChain over the counter abstraction.
func (u *counterUser) chain(st counter.State) func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			l, r := u.inc(st)
			u.dec(r)
			st = l
		}
	}
}

func counterCells(r *report, ct cellTimer) error {
	for _, cs := range counterSpecs {
		alg, err := counter.Parse(cs.spec, growThreshold)
		if err != nil {
			return fmt.Errorf("counter spec %q: %w", cs.spec, err)
		}
		u := newCounterUser(1)
		r.set("counter."+cs.name+".pair_ns", ct.min(u.chain(alg.New(1).RootState())), "ns")

		u0, u1 := newCounterUser(2), newCounterUser(3)
		l, rt := u0.inc(alg.New(1).RootState())
		r.set("counter."+cs.name+".pair_ns_p2", ct.pair2(u0.chain(l), u1.chain(rt)), "ns")

		// A cold counter's whole life as one fork uses it: created with
		// the serial dependency, one increment, drained by the two
		// decrements, the second of which must report zero.
		drained := true
		r.set("counter."+cs.name+".new_drain_ns", ct.min(func(n int) {
			for i := 0; i < n; i++ {
				a, b := u.inc(alg.New(1).RootState())
				drained = !u.dec(a) && u.dec(b) && drained
			}
		}), "ns")
		if !drained {
			return fmt.Errorf("counter spec %q: a fresh counter did not report zero exactly at its last decrement", cs.spec)
		}
	}
	return nil
}

func dequeCells(r *report, ct cellTimer) {
	x := new(int)
	var d deque.Deque[int]
	r.set("deque.push_pop_ns", ct.min(func(n int) {
		for i := 0; i < n; i++ {
			d.PushBottom(x)
			d.PopBottom()
		}
	}), "ns")

	// Steals alone: the victim is stocked before the clock starts.
	var victim deque.Deque[int]
	r.set("deque.steal_ns", minOf(ct.batchesOf(func(n int) time.Duration {
		for i := 0; i < n; i++ {
			victim.PushBottom(x)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			victim.Steal()
		}
		return time.Since(t0)
	})), "ns")

	// A thief stealing while the owner pushes and pops at the other end
	// of a deque it keeps short but stocked: a steal that finds the deque
	// non-empty but loses the race has failed.
	var busy deque.Deque[int]
	var attempts, lost int
	r.set("deque.steal_contended_ns", median(ct.batchesOf(timed(func(n int) {
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if busy.Size() < 64 {
					busy.PushBottom(x)
					busy.PushBottom(x)
				}
				busy.PopBottom()
			}
		}()
		for i := 0; i < n; i++ {
			if v, empty := busy.Steal(); v == nil && !empty {
				lost++
			}
		}
		attempts += n
		stop.Store(true)
		wg.Wait()
	}))), "ns")
	r.set("deque.steal_fail_ratio", float64(lost)/float64(attempts), "ratio")
}

// spdagCells runs a chain of spawns with no scheduler and no frontend:
// each executed vertex spawns a child that continues the chain and a
// continuation that signals at once — what one Async costs below the
// frontend. A link creates two vertices from the ExecContext's
// freelist, executes one, and pays one counter pair; the cell reports
// the link's time per vertex created.
func spdagCells(r *report, ct cellTimer) {
	var ready *spdag.Vertex
	ctx := &spdag.ExecContext{G: rng.NewXoshiro(1), Push: func(v *spdag.Vertex) { ready = v }}
	dag := spdag.New(counter.FetchAdd{}, spdag.WithScheduler(ctx.Push))
	left := 0
	var link spdag.Body
	link = func(self *spdag.Vertex) {
		if left == 0 {
			return // Execute signals for it: the chain's counter drains
		}
		left--
		v, w := self.Spawn()
		w.SetBody(link)
		w.TrySchedule()
		v.Signal()
		v.Recycle()
	}
	chain := func(n int) {
		left = n
		root, _ := dag.Make()
		root.SetBody(link)
		root.TrySchedule()
		for ready != nil {
			v := ready
			ready = nil
			v.Execute(ctx)
		}
	}
	r.set("spdag.vertex_cycle_ns", ct.min(chain)/2, "ns")
	const probe = 1 << 16
	before := mallocs()
	chain(probe)
	r.set("spdag.allocs_per_vertex", float64(mallocs()-before)/(2*probe), "count")
}

// stamp is a closure-free task body that records when it started.
type stamp struct{ at atomic.Int64 }

func (s *stamp) task() repro.Task {
	return func(*repro.Ctx) { s.at.Store(time.Now().UnixNano()) }
}

// startLatency submits st's task with Run and returns how long the body
// took to start.
func startLatency(rt *repro.Runtime, task repro.Task, st *stamp) time.Duration {
	t0 := time.Now()
	if err := rt.Run(task); err != nil {
		panic(fmt.Sprint("layer cell: Run of a no-op task failed: ", err))
	}
	return time.Duration(st.at.Load() - t0.UnixNano())
}

func schedCells(r *report, ct cellTimer) {
	samples := max(20, int(ct.batch/(500*time.Microsecond)))

	rt := repro.NewRuntime(repro.WithWorkers(2))
	st := &stamp{}
	task := st.task()
	awaitParked := func() {
		for rt.Stats().Parked < 2 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	r.set("sched.wake_us_p50", latencyP50(samples, func() time.Duration {
		awaitParked()
		return startLatency(rt, task, st)
	}), "us")

	// An idle runtime, all workers parked, observed for a while: what
	// it burns is the process's CPU over that time (the observer
	// sleeps).
	awaitParked()
	idle := max(4*ct.batch, 100*time.Millisecond)
	cpu0, t0 := cpuSeconds(), time.Now()
	time.Sleep(idle)
	r.set("sched.idle_cpu_ms_per_s", (cpuSeconds()-cpu0)*1e3/time.Since(t0).Seconds(), "ms/s")

	// The same submission while both workers are kept busy by a
	// background loop of small fan-ins: the root waits in the injector
	// until a worker's deque runs dry.
	hog := newFanin(1 << 12)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = rt.Run(hog.root) // a failed hog run only idles the workers; the cell still reports
			}
		}
	}()
	r.set("sched.inject_us_p50_busy", latencyP50(samples, func() time.Duration {
		return startLatency(rt, task, st)
	}), "us")
	close(stop)
	wg.Wait()
	rt.Close()

	// Per-vertex cost through every layer at one worker with the
	// cheapest counter: nothing to steal, nothing to contend on.
	one := repro.NewRuntime(repro.WithWorkers(1), repro.WithCounter("fetchadd"))
	k := newFanin(1 << 12)
	r.set("sched.vertex_ns_p1", ct.min(func(n int) {
		for i := 0; i < n; i++ {
			_ = one.Run(k.root) // errors are impossible for a no-op kernel on an open runtime
		}
	})/float64(k.executed()), "ns")
	one.Close()
}

// nestedCells times the frontend's operations on a 1-worker runtime
// with the cheapest counter, each amortised over a Run that performs
// many of them, with tasks built once.
func nestedCells(r *report, ct cellTimer) {
	rt := repro.NewRuntime(repro.WithWorkers(1), repro.WithCounter("fetchadd"))
	defer rt.Close()
	run := func(t repro.Task) {
		if err := rt.Run(t); err != nil {
			panic(fmt.Sprint("layer cell: Run failed: ", err))
		}
	}

	r.set("nested.run_empty_us_p50", latencyP50(max(50, int(ct.batch/(20*time.Microsecond))), func() time.Duration {
		t0 := time.Now()
		run(noop)
		return time.Since(t0)
	}), "us")

	const per = 1024 // operations per Run
	perOp := func(t repro.Task) float64 {
		return ct.min(func(n int) {
			for i := 0; i < n; i++ {
				run(t)
			}
		}) / per
	}
	allocsPer := func(t repro.Task) float64 {
		run(t)
		before := mallocs()
		for i := 0; i < 16; i++ {
			run(t)
		}
		return float64(mallocs()-before) / (16 * per)
	}

	asyncs := repro.Task(func(c *repro.Ctx) {
		for i := 0; i < per; i++ {
			c.Async(noop)
		}
	})
	r.set("nested.async_ns", perOp(asyncs), "ns")
	r.set("nested.allocs_per_async", allocsPer(asyncs), "count")

	// A ladder of `per` finish blocks, each an empty body whose
	// continuation opens the next.
	finishes, forkjoins := repro.Task(noop), repro.Task(noop)
	for i := 0; i < per; i++ {
		nextFinish, nextFork := finishes, forkjoins
		finishes = func(c *repro.Ctx) { c.FinishThen(noop, nextFinish) }
		forkjoins = func(c *repro.Ctx) { c.ForkJoinThen(noop, noop, nextFork) }
	}
	r.set("nested.finish_ns", perOp(finishes), "ns")
	r.set("nested.allocs_per_finish", allocsPer(finishes), "count")
	r.set("nested.forkjoin_ns", perOp(forkjoins), "ns")

	futs := make([]*repro.Future[int], per)
	one := func(*repro.Ctx) (int, error) { return 1, nil }
	spawn := func(c *repro.Ctx) {
		for i := range futs {
			futs[i] = repro.Go(c, one)
		}
	}
	collect := func(*repro.Ctx) {
		for _, f := range futs {
			if v, err := f.Result(); v != 1 || err != nil {
				panic("layer cell: a future lost its value")
			}
		}
	}
	futures := repro.Task(func(c *repro.Ctx) { c.FinishThen(spawn, collect) })
	r.set("nested.future_ns", perOp(futures), "ns")
}

func gatewayCells(r *report, ct cellTimer) error {
	samples := max(50, int(ct.batch/(100*time.Microsecond)))
	s, err := startServer(2)
	if err != nil {
		return err
	}
	var failed error
	r.set("gateway.submit_us_p50", latencyP50(samples, func() time.Duration {
		t0 := time.Now()
		if _, err := s.srv.G.Submit(context.Background(), "a", "fanin", 2); err != nil {
			failed = err
		}
		return time.Since(t0)
	}), "us")
	c := newClient(s.url, 0)
	url := s.url + "/v1/runs/fanin?n=2&tenant=a"
	r.set("gateway.http_us_p50", latencyP50(samples, func() time.Duration {
		var resp gateway.RunResponse
		t0 := time.Now()
		if status, err := c.roundtrip(nil, http.MethodPost, url, -1, 0, &resp); err != nil || status != http.StatusOK {
			failed = fmt.Errorf("POST %s: status %d: %v", url, status, err)
		}
		return time.Since(t0)
	}), "us")
	c.close()
	if err := s.stop(); err != nil {
		return err
	}
	if failed != nil {
		return fmt.Errorf("gateway cell: %w", failed)
	}
	return nil
}

func sinkCells(r *report, ct cellTimer) error {
	s := sink.New(sink.NewRing(0))
	recs := make([]*sink.RunRecord, 1<<14)
	for i := range recs {
		recs[i] = &sink.RunRecord{ID: strconv.Itoa(i), Tenant: "a", Template: "fanin", Status: sink.StatusOK}
	}
	r.set("sink.publish_ns", ct.min(func(n int) {
		for i := 0; i < n; i++ {
			s.Publish(recs[i%len(recs)])
		}
	}), "ns")
	st := s.Stats()
	r.set("sink.backend_calls_per_kwrite", float64(st.BackendCalls)/float64(st.LogicalWrites)*1000, "count")

	// Look up the newest records: still held, whatever the ring evicted.
	newest := recs[len(recs)-1024:]
	for _, rec := range newest {
		s.Publish(rec)
	}
	found := true
	r.set("sink.lookup_ns", ct.min(func(n int) {
		for i := 0; i < n; i++ {
			_, ok := s.Lookup(newest[i%len(newest)].ID)
			found = found && ok
		}
	}), "ns")

	// One flush of a threshold's worth of buffered records.
	var flushErr error
	fill := s.Threshold() - 1
	r.set("sink.flush_us", minOf(func() []float64 {
		out := make([]float64, 4*ct.batches)
		for i := range out {
			for j := 0; j < fill; j++ {
				s.Publish(recs[j])
			}
			t0 := time.Now()
			if err := s.Flush(context.Background()); err != nil {
				flushErr = err
			}
			out[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		}
		return out
	}()), "us")
	if err := s.Close(); err != nil {
		return fmt.Errorf("sink cell: close: %w", err)
	}
	if flushErr != nil {
		return fmt.Errorf("sink cell: flush: %w", flushErr)
	}
	if !found {
		return fmt.Errorf("sink cell: a just-published record was not found")
	}
	return nil
}
