package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/sink"
)

// compareGolden compares got against the golden file, or rewrites the
// golden when UPDATE_GOLDEN=1 is set (then inspect the diff and
// commit it deliberately — these files pin API schemas).
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden mismatch for %s (UPDATE_GOLDEN=1 regenerates; a diff here is an API change)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestErrorEnvelopeGolden pins the full error taxonomy — every
// (status, code) pair and the envelope schema — against a golden
// file. Inputs carry fixed Retry-After hints and the jitter stream is
// seeded, so the rendering is deterministic.
func TestErrorEnvelopeGolden(t *testing.T) {
	g := newTestGateway(t, Config{JitterSeed: 7})
	cases := []struct {
		name string
		err  error
	}{
		{"throttled", &ShedError{Reason: ShedThrottled, RetryAfter: 1500 * time.Millisecond}},
		{"overloaded", &ShedError{Reason: ShedOverload, RetryAfter: time.Second}},
		{"queue-full", &ShedError{Reason: ShedQueueFull, RetryAfter: time.Second}},
		{"degraded", &DegradedError{RetryAfter: 2 * time.Second}},
		{"hung", ErrHung},
		{"draining", ErrDraining},
		{"unknown-template", ErrUnknownTemplate},
		{"unknown-run", ErrUnknownRun},
		{"async-unsupported", ErrAsyncUnsupported},
		{"size-exceeded", &SizeError{Template: "fib", N: 99, MaxN: 30}},
		{"deadline", context.DeadlineExceeded},
		{"canceled", context.Canceled},
		{"closed", repro.ErrClosed},
		{"internal", errors.New("kaboom")},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		status, env := g.envelopeFor(c.err)
		// ErrDraining's hint is jittered: normalize it to its seed-7
		// draw being positive rather than pinning the exact value, so
		// the golden survives jitter-stream reordering.
		if c.name == "draining" {
			if env.RetryAfterMS <= 0 {
				t.Fatal("draining envelope lost its Retry-After hint")
			}
			env.RetryAfterMS = -1
		}
		b, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%-18s %d %s\n", c.name, status, b)
	}
	compareGolden(t, "testdata/error_envelope.golden", buf.Bytes())
}

// TestStatsSchemaGolden pins the GET /v1/stats document's key paths.
// Map-valued sections (tenants, templates) normalize their dynamic
// keys to "*". Adding a field means regenerating the golden
// deliberately; removing or renaming one is an API break.
func TestStatsSchemaGolden(t *testing.T) {
	g := newTestGateway(t, Config{})
	if _, err := g.Submit(context.Background(), "a", "fib", 5); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(g.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		m, ok := v.(map[string]any)
		if !ok {
			paths[prefix] = true
			return
		}
		for k, child := range m {
			if prefix == "tenants" || prefix == "templates" {
				k = "*"
			}
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			walk(p, child)
		}
	}
	walk("", doc)
	keys := make([]string, 0, len(paths))
	for p := range paths {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	compareGolden(t, "testdata/stats_schema.golden", []byte(strings.Join(keys, "\n")+"\n"))
}

// TestAsyncLifecycle drives the v1 job API end to end over HTTP:
// POST mode=async returns 202 with a run id, GET polls 202-pending
// then 200 with the correct result, an unknown id 404s with the
// unknown-run envelope, async on a result-less template 400s, and a
// bad mode 400s.
func TestAsyncLifecycle(t *testing.T) {
	g := newTestGateway(t, Config{})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/runs/fib?mode=async&n=20&tenant=x", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var accepted RunStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || accepted.RunID == "" || accepted.Status != "pending" {
		t.Fatalf("async POST = %d %+v, want 202 pending with a run id", resp.StatusCode, accepted)
	}

	// Poll until done. Pending polls return 202 with the same id.
	var rec sink.RunRecord
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/runs/" + accepted.RunID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("poll status = %d, want 202 or 200", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("run never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if rec.ID != accepted.RunID || rec.Status != sink.StatusOK || rec.Tenant != "x" || rec.Template != "fib" {
		t.Fatalf("record = %+v, want ok fib run %s for tenant x", rec, accepted.RunID)
	}
	if v, ok := rec.Result.(float64); !ok || v != 6765 {
		t.Fatalf("result = %v (%T), want fib(20) = 6765", rec.Result, rec.Result)
	}

	// Unknown id: 404 with the unknown-run envelope.
	resp, err = http.Get(srv.URL + "/v1/runs/no-such-run")
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || env.Code != CodeUnknownRun {
		t.Fatalf("unknown run = %d %+v, want 404 unknown-run", resp.StatusCode, env)
	}

	// fanin has no Result: async must be refused at admission.
	resp, err = http.Post(srv.URL+"/v1/runs/fanin?mode=async", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	env = ErrorEnvelope{}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Code != CodeAsyncUnsupported {
		t.Fatalf("async fanin = %d %+v, want 400 async-unsupported", resp.StatusCode, env)
	}

	// And a mode neither sync nor async is a plain bad request.
	resp, err = http.Post(srv.URL+"/v1/runs/fib?mode=batch", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	env = ErrorEnvelope{}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Code != CodeBadRequest {
		t.Fatalf("bad mode = %d %+v, want 400 bad-request", resp.StatusCode, env)
	}
}

// cancellableRegistry registers "wait": a result-bearing template
// whose task signals started once and then sleeps in 1ms slices,
// polling Ctx.Err so cooperative cancellation can abort it.
func cancellableRegistry(started chan struct{}) *Registry {
	r := NewRegistry()
	_ = r.Register(Template{
		Name:     "wait",
		DefaultN: 1,
		MaxN:     10_000,
		Result: func(n uint64) (repro.Task, func() any) {
			return func(c *repro.Ctx) {
				select {
				case started <- struct{}{}:
				default:
				}
				deadline := time.Now().Add(time.Duration(n) * time.Millisecond)
				for time.Now().Before(deadline) {
					if c.Err() != nil {
						return
					}
					time.Sleep(time.Millisecond)
				}
			}, func() any { return n }
		},
	})
	return r
}

// TestAdmittedRunNeverReads404 is the regression test for the lookup
// order of GET /v1/runs/{id}: an admitted id must resolve as pending
// (202) or done (200) at every instant, including the one in which the
// dispatcher publishes its record and untracks it. Each client submits
// trivial async runs and polls the handler in a tight loop with no
// sleep, so polls land inside that window; sink-first lookup answered
// a handful of them 404 per thousand runs.
func TestAdmittedRunNeverReads404(t *testing.T) {
	const clients, runsEach = 4, 600
	g := newTestGateway(t, Config{QueueDepth: 4 * clients})
	h := g.Handler()
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			tenant := fmt.Sprintf("t%d", c)
			for i := 0; i < runsEach; i++ {
				id, err := g.SubmitAsync(tenant, "fib", 1, 0)
				if err != nil {
					errs <- fmt.Errorf("client %d run %d: admit: %w", c, i, err)
					return
				}
				for polls := 0; ; polls++ {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/runs/"+id, nil))
					if w.Code == http.StatusOK {
						break
					}
					if w.Code != http.StatusAccepted {
						errs <- fmt.Errorf("client %d run %d: poll %d of admitted run %s = %d, want 202 or 200",
							c, i, polls, id, w.Code)
						return
					}
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAsyncCancel: DELETE on a running async run returns 202
// canceling, the run settles with a canceled record, and a second
// DELETE is an idempotent 200 returning that record.
func TestAsyncCancel(t *testing.T) {
	started := make(chan struct{}, 1)
	g := newTestGateway(t, Config{Registry: cancellableRegistry(started)})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	id, err := g.SubmitAsync("x", "wait", 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("run never started")
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st RunStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.Status != "canceling" {
		t.Fatalf("DELETE = %d %+v, want 202 canceling", resp.StatusCode, st)
	}

	var rec sink.RunRecord
	deadline := time.Now().Add(10 * time.Second)
	for {
		if r, ok := g.Sink().Lookup(id); ok {
			rec = *r
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled run never settled")
		}
		time.Sleep(time.Millisecond)
	}
	if rec.Status != sink.StatusCanceled {
		t.Fatalf("record status = %q, want canceled", rec.Status)
	}

	// Idempotent second DELETE: the run is settled, so 200 + record.
	resp, err = http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	var again sink.RunRecord
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.ID != id {
		t.Fatalf("second DELETE = %d %+v, want 200 with the record", resp.StatusCode, again)
	}
}

// TestDrainFlushesAllRecords is the no-lost-records drain contract:
// async runs admitted before shutdown all reach the sink backend by
// the time Serve returns, even though the coalescing threshold was
// never crossed — the flush provably came from the drain path. Also
// checks no gateway goroutine outlives Serve.
func TestDrainFlushesAllRecords(t *testing.T) {
	before := runtime.NumGoroutine()
	ring := sink.NewRing(256)
	s := NewServer("127.0.0.1:0", Config{
		Sink:           sink.New(ring, sink.WithThreshold(1000), sink.WithInterval(time.Hour)),
		RuntimeOptions: []repro.Option{repro.WithWorkers(2), repro.WithSeed(42)},
	})
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()

	const runs = 8
	ids := make([]string, 0, runs)
	for i := 0; i < runs; i++ {
		id, err := s.G.SubmitAsync("x", "spin", 20_000, 0) // ~20ms each
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	cancel() // SIGTERM equivalent: drain with runs still in flight
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never finished")
	}

	// Every admitted run's record reached the backend ring.
	if got := ring.Len(); got != runs {
		t.Fatalf("ring holds %d records after drain, want %d", got, runs)
	}
	for _, id := range ids {
		if _, ok := ring.Lookup(id); !ok {
			t.Fatalf("run %s lost in drain", id)
		}
	}
	st := s.G.Sink().Stats()
	if st.Dropped != 0 || st.LogicalWrites != runs {
		t.Fatalf("sink stats = %+v, want %d logical writes and 0 dropped", st, runs)
	}
	if tracked := s.G.Stats().RunsTracked; tracked != 0 {
		t.Fatalf("%d runs still tracked after Close", tracked)
	}

	// All gateway/runtime/server goroutines must have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAsyncMemoryBounded pushes 10k completed async runs through a
// gateway whose sink backend is a 64-record ring: the tracked-runs map
// must drain back to zero and the ring must stay at its bound —
// completed-run state may not accumulate anywhere.
func TestAsyncMemoryBounded(t *testing.T) {
	total := uint64(10_000)
	if testing.Short() {
		total = 2_000
	}
	ring := sink.NewRing(64)
	g := newTestGateway(t, Config{
		Sink:       sink.New(ring, sink.WithThreshold(32)),
		QueueDepth: 256,
	})
	var submitted uint64
	for submitted < total {
		_, err := g.SubmitAsync("x", "fib", 1, 0)
		var shed *ShedError
		if errors.As(err, &shed) {
			time.Sleep(100 * time.Microsecond) // queue full: back off, retry
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		submitted++
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := g.Sink().Stats()
		if st.LogicalWrites == total && g.Stats().RunsTracked == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled: %d/%d records, %d tracked", st.LogicalWrites, total, g.Stats().RunsTracked)
		}
		time.Sleep(time.Millisecond)
	}
	if ring.Len() > ring.Cap() {
		t.Fatalf("ring grew past its bound: %d > %d", ring.Len(), ring.Cap())
	}
	if st := g.Sink().Stats(); st.Dropped != 0 {
		t.Fatalf("%d records dropped", st.Dropped)
	}
}

// TestRegisterRejectsUnserializableResult: the async contract is
// enforced at registration time — a Result whose value cannot
// round-trip through json.Marshal refuses the template then, not at
// some later dispatch.
func TestRegisterRejectsUnserializableResult(t *testing.T) {
	r := NewRegistry()
	err := r.Register(Template{
		Name:     "chan",
		DefaultN: 1,
		MaxN:     1,
		Result: func(n uint64) (repro.Task, func() any) {
			return func(*repro.Ctx) {}, func() any { return make(chan int) }
		},
	})
	if err == nil {
		t.Fatal("Register accepted a channel-valued result")
	}
	if _, ok := r.Get("chan"); ok {
		t.Fatal("rejected template still registered")
	}
}
