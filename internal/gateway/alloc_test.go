package gateway

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRequestAllocBudgets holds one fanin n=64 request to its exact
// allocation count on the two request paths: a sync Submit, and a POST
// through Handler. The count covers the whole request (request record,
// run id, dispatch, the computation on the runtime, the sink record)
// and is the same at GOMAXPROCS 1, 2 and 4, since AllocsPerRun pins
// GOMAXPROCS to 1 while it measures. A change that adds or removes an
// allocation per request moves the budget here in the same commit.
func TestRequestAllocBudgets(t *testing.T) {
	if raceEnabled || nestedChecks {
		t.Skip("race instrumentation and unpooled Ctxs change allocation behaviour")
	}
	g := newTestGateway(t, Config{})
	submit := func() {
		if _, err := g.Submit(context.Background(), "t", "fanin", 64); err != nil {
			t.Fatal(err)
		}
	}
	// Bring the runtime's pools and the sink's shard buffers to steady
	// state: the first flushes of each shard re-grow its buffer.
	for i := 0; i < 64; i++ {
		submit()
	}
	h := g.Handler()
	post := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs/fanin?n=64", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("POST status %d: %s", w.Code, w.Body)
		}
	}
	for _, c := range []struct {
		path   string
		run    func()
		budget float64
	}{{"Submit", submit, 83}, {"POST", post, 128}} {
		if allocs := testing.AllocsPerRun(50, c.run); allocs > c.budget {
			t.Errorf("%s fanin n=64: %.0f allocs/request, budget %.0f", c.path, allocs, c.budget)
		}
	}
}
