package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/internal/sink"
	"repro/internal/stats"
)

// The HTTP surface (every route is under /v1):
//
//	POST   /v1/runs/{template}?tenant=T&n=N&timeout=D   run a computation (sync)
//	POST   /v1/runs/{template}?mode=async&...           202 {"run_id"} immediately after admission
//	GET    /v1/runs/{id}                                200 RunRecord / 202 pending / 404 unknown
//	DELETE /v1/runs/{id}                                cancel a tracked run (202), no-op on a done one (200)
//	GET    /v1/stats                                    gateway + runtime + sink counters (JSON)
//	GET    /v1/templates                                registered templates (JSON)
//	GET    /v1/healthz                                  200 serving / 503 draining or degraded
//
// Status mapping: 200 success, 202 admitted/pending, 400 bad
// parameter or async on a result-less template, 404 unknown template
// or run, 429 + Retry-After shed by admission, 499 canceled, 503 +
// Retry-After draining/degraded, 504 deadline or hung, 500
// computation error. Every non-2xx body is the ErrorEnvelope
// (errors.go); the golden test pins both schemas.

// RunResponse is the JSON body of a successful synchronous POST
// /v1/runs/{template}. RunID also names the run's RunRecord in the
// sink; Result is present for result-bearing templates.
type RunResponse struct {
	RunID    string  `json:"run_id"`
	Template string  `json:"template"`
	Tenant   string  `json:"tenant"`
	N        uint64  `json:"n"`
	QueueMS  float64 `json:"queue_ms"`
	RunMS    float64 `json:"run_ms"`
	Result   any     `json:"result,omitempty"`
}

// RunStatusResponse is the 202 body of the async lifecycle: the
// accepted (or canceling) run's id and its current state.
type RunStatusResponse struct {
	RunID  string `json:"run_id"`
	Status string `json:"status"` // "pending" | "canceling"
}

// TenantSnapshot is one tenant's /v1/stats entry.
type TenantSnapshot struct {
	Admitted  uint64               `json:"admitted"`
	Completed uint64               `json:"completed"`
	Failed    uint64               `json:"failed"`
	Shed      uint64               `json:"shed"`
	Weight    int                  `json:"weight"`
	Latency   stats.LatencySummary `json:"latency"`
}

// Snapshot is the GET /v1/stats document: admission counters,
// per-tenant and per-template latency, the sink's coalescing ledger,
// and the runtime's own Stats (including the InjectorDepth /
// PeggedFor backpressure signals feeding admission). The schema —
// the set of key paths — is pinned by a golden test
// (testdata/stats_schema.golden): adding a field means regenerating
// the golden deliberately, and removing or renaming one is an API
// break the test catches.
type Snapshot struct {
	Admitted      uint64 `json:"admitted"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	Queued        int    `json:"queued"`
	Running       int    `json:"running"`
	Draining      bool   `json:"draining"`
	Degraded      bool   `json:"degraded"`       // inside a self-defense hold-down window
	DegradedTrips uint64 `json:"degraded_trips"` // reaps + watchdog stalls that (re-)armed it
	Reaped        uint64 `json:"reaped"`         // requests force-failed as hung (504)
	ShedQueueFull uint64 `json:"shed_queue_full"`
	ShedOverload  uint64 `json:"shed_overload"`
	ShedThrottled uint64 `json:"shed_throttled"`
	ShedDraining  uint64 `json:"shed_draining"`
	ShedDegraded  uint64 `json:"shed_degraded"`
	RunsTracked   int    `json:"runs_tracked"` // admitted, unsettled runs (the 202-pending set)

	Tenants   map[string]TenantSnapshot       `json:"tenants"`
	Templates map[string]stats.LatencySummary `json:"templates"`
	Sink      sink.Stats                      `json:"sink"`
	Runtime   repro.Stats                     `json:"runtime"`
}

// Stats snapshots the gateway (see Snapshot). Histogram merging
// happens outside the admission lock.
func (g *Gateway) Stats() Snapshot {
	g.mu.Lock()
	s := Snapshot{
		Admitted:      g.admitted,
		Completed:     g.completed,
		Failed:        g.failed,
		Queued:        g.queued,
		Running:       g.running,
		Draining:      g.drain,
		Degraded:      time.Now().Before(g.degradedUntil),
		DegradedTrips: g.degradedTrips,
		Reaped:        g.reaped,
		ShedQueueFull: g.shedQueueFull,
		ShedOverload:  g.shedOverload,
		ShedThrottled: g.shedThrottled,
		ShedDraining:  g.shedDraining,
		ShedDegraded:  g.shedDegraded,
		RunsTracked:   len(g.runs),
		Tenants:       make(map[string]TenantSnapshot, len(g.tenants)),
	}
	type pending struct {
		name string
		ts   TenantSnapshot
		hist *stats.LatencyHist
	}
	tens := make([]pending, 0, len(g.tenants))
	for name, t := range g.tenants {
		tens = append(tens, pending{name, TenantSnapshot{
			Admitted:  t.admitted,
			Completed: t.completed,
			Failed:    t.failed,
			Shed:      t.shed,
			Weight:    t.weight,
		}, t.hist})
	}
	g.mu.Unlock()

	for _, p := range tens {
		p.ts.Latency = p.hist.Snapshot()
		s.Tenants[p.name] = p.ts
	}
	g.histMu.RLock()
	hists := make(map[string]*stats.LatencyHist, len(g.tplHist))
	for name, h := range g.tplHist {
		hists[name] = h
	}
	g.histMu.RUnlock()
	s.Templates = make(map[string]stats.LatencySummary, len(hists))
	for name, h := range hists {
		s.Templates[name] = h.Snapshot()
	}
	s.Sink = g.sink.Stats()
	s.Runtime = g.rt.Stats()
	return s
}

// Handler returns the gateway's HTTP handler (routes above).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs/{template}", g.handleRun)
	mux.HandleFunc("GET /v1/runs/{id}", g.handleGetRun)
	mux.HandleFunc("DELETE /v1/runs/{id}", g.handleCancelRun)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /v1/templates", g.handleTemplates)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	return mux
}

func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	tplName := r.PathValue("template")
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		tenant = "default"
	}
	var n uint64
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil || v == 0 {
			badRequest(w, "bad n: want a positive integer")
			return
		}
		n = v
	}
	timeout := g.cfg.DefaultTimeout
	if s := r.URL.Query().Get("timeout"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			badRequest(w, "bad timeout: want a positive Go duration")
			return
		}
		if d > g.cfg.MaxTimeout {
			d = g.cfg.MaxTimeout
		}
		timeout = d
	}

	switch r.URL.Query().Get("mode") {
	case "", "sync":
	case "async":
		id, err := g.SubmitAsync(tenant, tplName, n, timeout)
		if err != nil {
			g.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, RunStatusResponse{RunID: id, Status: "pending"})
		return
	default:
		badRequest(w, "bad mode: want sync or async")
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	res, err := g.Submit(ctx, tenant, tplName, n)
	if err != nil {
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{
		RunID:    res.RunID,
		Template: tplName,
		Tenant:   tenant,
		N:        n,
		QueueMS:  float64(res.Queue) / float64(time.Millisecond),
		RunMS:    float64(res.Run) / float64(time.Millisecond),
		Result:   res.Value,
	})
}

// lookupRun resolves a run id to exactly one of tracked (req, a run
// still pending), settled (rec, its record in the sink) or unknown
// (both nil). The pending set is consulted FIRST: dispatchers publish
// before they untrack, so an id that is no longer tracked is already
// visible in the sink. Looking in the sink first would leave a gap — a
// run that settles between the two looks has been published after the
// first and untracked before the second, and reads as unknown.
func (g *Gateway) lookupRun(id string) (req *request, rec *sink.RunRecord) {
	g.mu.Lock()
	req = g.runs[id]
	g.mu.Unlock()
	if req == nil {
		rec, _ = g.sink.Lookup(id)
	}
	return req, rec
}

// handleGetRun is the async lifecycle's read side, the 404→202→200
// taxonomy: a run the gateway still tracks is pending (202), a record
// in the sink is done (200, the RunRecord — whatever its status: ok,
// failed, canceled, hung), anything else is unknown (404 envelope).
func (g *Gateway) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch req, rec := g.lookupRun(id); {
	case req != nil:
		writeJSON(w, http.StatusAccepted, RunStatusResponse{RunID: id, Status: "pending"})
	case rec != nil:
		writeJSON(w, http.StatusOK, rec)
	default:
		g.writeError(w, fmt.Errorf("%w: %q", ErrUnknownRun, id))
	}
}

// handleCancelRun aborts a tracked run through the RunContext
// plumbing: cancel flips the run's context, the runtime aborts the
// computation cooperatively, and the dispatcher settles it with a
// canceled RunRecord. Cancelling an already-settled run is a no-op
// that returns its record (200) — DELETE is idempotent.
func (g *Gateway) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch req, rec := g.lookupRun(id); {
	case req != nil:
		req.cancel()
		writeJSON(w, http.StatusAccepted, RunStatusResponse{RunID: id, Status: "canceling"})
	case rec != nil:
		writeJSON(w, http.StatusOK, rec)
	default:
		g.writeError(w, fmt.Errorf("%w: %q", ErrUnknownRun, id))
	}
}

func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Stats())
}

func (g *Gateway) handleTemplates(w http.ResponseWriter, r *http.Request) {
	type tpl struct {
		Name     string `json:"name"`
		Doc      string `json:"doc"`
		DefaultN uint64 `json:"default_n"`
		MaxN     uint64 `json:"max_n"`
	}
	var out []tpl
	for _, name := range g.reg.Names() {
		t, _ := g.reg.Get(name)
		out = append(out, tpl{t.Name, t.Doc, t.DefaultN, t.MaxN})
	}
	writeJSON(w, http.StatusOK, out)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if g.Draining() {
		g.writeError(w, ErrDraining)
		return
	}
	if g.Degraded() {
		g.writeError(w, &DegradedError{RetryAfter: g.jitter(g.cfg.RetryAfter)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server couples a Gateway with an http.Server and the drain
// choreography cmd/reproserve (and the e2e test) need: Listen binds,
// Serve runs until its context is cancelled (SIGTERM under
// signal.NotifyContext), then drains in order — admission closes
// (503), the HTTP server shuts down gracefully (in-flight handlers
// finish, which means their queued requests complete through the
// runtime), and finally Gateway.Close stops dispatchers and workers.
// No admitted request is abandoned and no goroutine outlives Serve.
type Server struct {
	G *Gateway

	addr string
	ln   net.Listener
	hs   *http.Server

	// ShutdownTimeout caps the graceful-drain phase (default 30s):
	// past it, remaining connections are cut. In-flight computations
	// are still completed by Close — only their responses are lost.
	ShutdownTimeout time.Duration
}

// NewServer builds a Server for addr (e.g. ":8080", or
// "127.0.0.1:0" to let the kernel pick a test port).
func NewServer(addr string, cfg Config) *Server {
	g := New(cfg)
	return &Server{
		G:               g,
		addr:            addr,
		hs:              &http.Server{Handler: g.Handler()},
		ShutdownTimeout: 30 * time.Second,
	}
}

// Listen binds the server's address. Call before Serve when the
// caller needs the bound address (tests use port 0).
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound address after Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.addr
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until ctx is cancelled, then performs the
// graceful drain described on Server and returns. The returned error
// is nil on a clean drain, or the listener's error if accepting
// failed first.
func (s *Server) Serve(ctx context.Context) error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- s.hs.Serve(s.ln) }()
	select {
	case err := <-errc:
		// Listener failure: still release the gateway's goroutines.
		s.G.Close()
		return err
	case <-ctx.Done():
	}

	// Drain: close admission first so requests arriving during the
	// HTTP shutdown window get 503 + Retry-After instead of admitting
	// work that would extend the drain.
	s.G.BeginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), s.ShutdownTimeout)
	defer cancel()
	_ = s.hs.Shutdown(shCtx)
	<-errc // hs.Serve has returned http.ErrServerClosed
	s.G.Close()
	return nil
}
