package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/gateway"
)

// serve_mix traffic, frozen: 3 in 4 requests are a synchronous fan-in,
// 1 in 4 an asynchronous sort polled until its record is terminal.
const (
	syncN        = 4096
	asyncN       = 32768
	pollEvery    = 500 * time.Microsecond
	pacedRate    = 240 // requests/s over both connections, about half of capacity
	serveConns   = 2
	serveWarmup  = 400 // requests per epoch before measuring (40 under -smoke); part of setup_s
	scheduleLen  = 4096
	requestLimit = 10 * time.Second
)

// asyncSlots returns a schedule of n request slots of which exactly n/4
// are asynchronous, their positions a shuffle drawn from seed.
func asyncSlots(n int, seed uint64) []bool {
	slots := make([]bool, n)
	for i := 0; i < n/4; i++ {
		slots[i] = true
	}
	rand.New(rand.NewSource(int64(seed))).Shuffle(n, func(i, j int) {
		slots[i], slots[j] = slots[j], slots[i]
	})
	return slots
}

// sortChecksum computes, independently of the program, what the sort
// template must report for n: the xor-rotate checksum of the sorted
// xorshift sequence the template generates.
func sortChecksum(n int) uint64 {
	xs := make([]int32, n)
	seed := uint64(0x9E3779B97F4A7C15)
	for i := range xs {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		xs[i] = int32(seed)
	}
	slices.Sort(xs)
	var sum uint64
	for _, x := range xs {
		sum = sum<<1 ^ sum>>63 ^ uint64(uint32(x))
	}
	return sum
}

// server is an in-process gateway over an owned runtime and the default
// ring sink, listening on a loopback port.
type server struct {
	srv    *gateway.Server
	url    string
	cancel context.CancelFunc
	served chan error
}

func startServer(workers int) (*server, error) {
	s := &server{srv: gateway.NewServer("127.0.0.1:0", gateway.Config{
		RuntimeOptions: []repro.Option{repro.WithWorkers(workers)},
	})}
	if err := s.srv.Listen(); err != nil {
		_ = s.srv.G.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + s.srv.Addr()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ctx) }()
	return s, nil
}

// stop drains the server and waits for Serve to return.
func (s *server) stop() error {
	s.cancel()
	return <-s.served
}

// request is one completed (or failed) client request.
type request struct {
	async   bool
	traced  bool
	ok      bool
	ms      float64 // due (or send) time → full response / terminal record
	lateMS  float64 // paced phase: how long after it could have been sent the generator sent it
	queueMS float64 // as reported by the program
	runMS   float64
	why     string // for a failed request: what was wrong with it
}

// client is one keep-alive connection to the server.
type client struct {
	http     *http.Client
	syncURL  string
	asyncURL string
	runURL   string
	checksum uint64

	// asyncs counts the asynchronous requests this connection sent and
	// vanished the polls among them that were answered 404 for a run the
	// program had admitted (see doAsync).
	asyncs, vanished int
}

func newClient(base string, checksum uint64) *client {
	return &client{
		http: &http.Client{
			Timeout: requestLimit,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		syncURL:  fmt.Sprintf("%s/v1/runs/fanin?n=%d&tenant=a", base, syncN),
		asyncURL: fmt.Sprintf("%s/v1/runs/sort?n=%d&mode=async&tenant=b", base, asyncN),
		runURL:   base + "/v1/runs/",
		checksum: checksum,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// roundtrip sends one request and decodes the JSON body into out.
func (c *client) roundtrip(tr *tracer, method, url string, parent, op int, out any) (int, error) {
	sp := tr.begin("http.roundtrip", parent, op)
	defer tr.end(sp)
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return resp.StatusCode, fmt.Errorf("decode %s: %w", url, err)
	}
	return resp.StatusCode, nil
}

// do performs one request of the mix and checks its output. from is the
// instant its latency counts from (its due time in the paced phase); tr
// is nil for a request that is not traced.
func (c *client) do(tr *tracer, async bool, from time.Time, op int) request {
	r := request{async: async, traced: tr != nil}
	if async {
		r.why, r.queueMS, r.runMS = c.doAsync(tr, op)
	} else {
		r.why, r.queueMS, r.runMS = c.doSync(tr, op)
	}
	r.ok = r.why == ""
	r.ms = float64(time.Since(from)) / float64(time.Millisecond)
	return r
}

// doSync returns why the request failed its checks ("" when it passed)
// and the latency split the program reported.
func (c *client) doSync(tr *tracer, op int) (why string, queueMS, runMS float64) {
	sp := tr.begin("client.request", -1, op)
	defer tr.end(sp)
	var resp gateway.RunResponse
	status, err := c.roundtrip(tr, http.MethodPost, c.syncURL, sp, op, &resp)
	layReported(tr, sp, op, resp.QueueMS, resp.RunMS)
	switch {
	case err != nil:
		why = fmt.Sprint("sync POST: ", err)
	case status != http.StatusOK:
		why = fmt.Sprint("sync POST: status ", status)
	case resp.Template != "fanin" || resp.N != syncN || resp.RunID == "":
		why = fmt.Sprintf("sync POST: response describes another run: %+v", resp)
	}
	return why, resp.QueueMS, resp.RunMS
}

func (c *client) doAsync(tr *tracer, op int) (why string, queueMS, runMS float64) {
	sub := tr.begin("client.submit", -1, op)
	var acc gateway.RunStatusResponse
	status, err := c.roundtrip(tr, http.MethodPost, c.asyncURL, sub, op, &acc)
	tr.end(sub)
	if err != nil || status != http.StatusAccepted || acc.RunID == "" {
		return fmt.Sprintf("async POST: status %d, run id %q: %v", status, acc.RunID, err), 0, 0
	}
	// The record decodes loosely: a pending poll answers with the
	// RunStatusResponse shape, the terminal one with the RunRecord.
	var rec struct {
		Status  string  `json:"status"`
		Result  uint64  `json:"result"`
		Error   string  `json:"error"`
		QueueMS float64 `json:"queue_ms"`
		RunMS   float64 `json:"run_ms"`
	}
	url := c.runURL + acc.RunID
	c.asyncs++
	vanished := false
	for deadline := time.Now().Add(requestLimit); time.Now().Before(deadline); {
		time.Sleep(pollEvery)
		poll := tr.begin("client.poll", sub, op)
		status, err = c.roundtrip(tr, http.MethodGet, url, poll, op, &rec)
		tr.end(poll)
		if err != nil {
			return fmt.Sprint("async GET: ", err), 0, 0
		}
		if status == http.StatusAccepted {
			continue
		}
		// At the commit that defined the benchmark the program answers
		// about one poll in a thousand with 404 for a run it admitted:
		// GET /v1/runs/{id} looks in the sink, then in the pending set,
		// and a run that settles between the two looks is in neither.
		// The next poll finds the record. One such answer per request is
		// counted (gateway.vanished_poll_ratio) and polled past, so that
		// the workload has no failing operation; a second one fails it.
		if status == http.StatusNotFound && !vanished {
			vanished = true
			c.vanished++
			continue
		}
		layReported(tr, poll, op, rec.QueueMS, rec.RunMS)
		switch {
		case status != http.StatusOK || rec.Status != "ok":
			why = fmt.Sprintf("async GET: status %d, record %q: %s", status, rec.Status, rec.Error)
		case rec.Result != c.checksum:
			why = fmt.Sprintf("async GET: sort checksum %d, want %d", rec.Result, c.checksum)
		}
		return why, rec.QueueMS, rec.RunMS
	}
	return "async GET: the record never became terminal", 0, 0
}

// layReported lays the program's own queue_ms / run_ms into the trace
// as children of the span whose response carried them, stacked back
// from the span's end: the run ended just before the response left, the
// queue wait just before the run.
func layReported(tr *tracer, parent, op int, queueMS, runMS float64) {
	if tr == nil {
		return
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	runStart := tr.lay("gateway.run", parent, op, tr.now(), ms(runMS))
	tr.lay("gateway.queue", parent, op, runStart, ms(queueMS))
}

// serveEpoch is what one set-up, one paced phase and one saturate phase
// yield. The paced phase fills the embedded epoch's latency, CPU and
// allocation meters; the saturate phase its throughput.
type serveEpoch struct {
	epoch
	paced   []request // the paced phase's requests, successful or not
	gateway gateway.Snapshot

	asyncs, vanished int // over the server's whole life; see client
}

// serveEpochRun sets a server up (construction, fixed warm-up, one GC)
// and drives it over serveConns keep-alive connections: first an open
// loop at the fixed paced rate, each request timed from its due time,
// then a closed loop with every connection sending back to back.
func serveEpochRun(workers int, seed uint64, warmup int, paced, saturate time.Duration, tr *tracer) (serveEpoch, error) {
	var e serveEpoch
	setup := time.Now()
	s, err := startServer(workers)
	if err != nil {
		return e, err
	}
	slots := asyncSlots(scheduleLen, seed)
	checksum := sortChecksum(asyncN)
	clients := make([]*client, serveConns)
	for i := range clients {
		clients[i] = newClient(s.url, checksum)
		defer clients[i].close()
	}
	var next atomic.Int64 // request index: picks the slot, names the op in the trace
	closedLoop := func(c *client, tr *tracer, until func(done int) bool) (reqs []request) {
		for n := 0; !until(n); n++ {
			i := int(next.Add(1) - 1)
			reqs = append(reqs, c.do(tr.everyOther(i), slots[i%scheduleLen], time.Now(), i))
		}
		return reqs
	}
	onEveryConn := func(f func(conn int, c *client) []request) (all []request) {
		per := make([][]request, serveConns)
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				per[i] = f(i, c)
			}()
		}
		wg.Wait()
		return slices.Concat(per...)
	}

	warm := onEveryConn(func(_ int, c *client) []request {
		return closedLoop(c, nil, func(done int) bool { return done >= warmup/serveConns })
	})
	if bad := countFailed(warm); bad > 0 {
		_ = s.stop()
		return e, fmt.Errorf("warm-up: %d of %d requests failed, the first: %s", bad, len(warm), firstFailure(warm))
	}
	runtime.GC()
	e.setupS = time.Since(setup).Seconds()

	// Paced phase. Slot i is due at start + offset + i·interval and
	// belongs to connection i mod serveConns; the offset is drawn from
	// the seed so different seeds land differently against the
	// program's own timers.
	interval := time.Second / pacedRate
	offset := time.Duration(rand.New(rand.NewSource(int64(seed))).Int63n(int64(interval)))
	nSlots := int(paced / interval)
	var gauges *gaugeSampler
	if tr != nil {
		gauges = sampleGauges(s.srv.G.Runtime())
	}
	base := int(next.Load())
	win := openWindow()
	start := win.start.Add(offset)
	e.paced = onEveryConn(func(conn int, c *client) (reqs []request) {
		free := win.start // when the connection's previous request completed
		for i := conn; i < nSlots; i += serveConns {
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			// The generator's own lag: a request whose connection is
			// still busy at its due time waits for the program, not for
			// the generator, and that wait is in its latency already.
			could := due
			if free.After(due) {
				could = free
			}
			late := float64(time.Since(could)) / float64(time.Millisecond)
			r := c.do(tr.everyOther(base+i), slots[(base+i)%scheduleLen], due, base+i)
			free = time.Now()
			r.lateMS = late
			reqs = append(reqs, r)
		}
		return reqs
	})
	next.Store(int64(base + nSlots))
	e.attempted = len(e.paced)
	e.failed = countFailed(e.paced)
	win.close(&e.epoch, e.attempted-e.failed)
	if gauges != nil {
		gauges.finish(&e.epoch)
	}
	for _, r := range e.paced {
		if r.ok {
			e.opMS = append(e.opMS, r.ms)
			if r.traced {
				e.tracedMS = append(e.tracedMS, r.ms)
			} else if tr != nil {
				e.plainMS = append(e.plainMS, r.ms)
			}
		}
	}

	// Saturate phase.
	satStart := time.Now()
	sat := onEveryConn(func(_ int, c *client) []request {
		return closedLoop(c, tr, func(int) bool { return time.Since(satStart) >= saturate })
	})
	satElapsed := time.Since(satStart).Seconds()
	e.attempted += len(sat)
	e.failed += countFailed(sat)
	e.opsPerS = float64(len(sat)-countFailed(sat)) / satElapsed

	for _, c := range clients {
		e.asyncs += c.asyncs
		e.vanished += c.vanished
	}
	e.gateway = s.srv.G.Stats()
	e.stats, e.statsOps = e.gateway.Runtime, int(e.gateway.Admitted) // since the server started, warm-up included
	if err := s.stop(); err != nil {
		return e, fmt.Errorf("server drain: %w", err)
	}
	return e, nil
}

// firstFailure says what was wrong with the first failed request.
func firstFailure(reqs []request) string {
	for _, r := range reqs {
		if !r.ok {
			return r.why
		}
	}
	return ""
}

func countFailed(reqs []request) (n int) {
	for _, r := range reqs {
		if !r.ok {
			n++
		}
	}
	return n
}
