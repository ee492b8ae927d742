package gateway

import (
	"time"

	"repro/internal/stats"
)

// This file is the fairness half of admission: per-tenant token
// buckets (quota — who may enter) and weighted round-robin dequeue
// (schedule — who goes next). The two compose into the discipline the
// e2e test asserts: a tenant exceeding its quota is throttled at the
// door, and even an admitted backlog cannot monopolize dispatchers
// because dequeue interleaves tenants by weight.

// bucket is a token bucket: capacity `burst`, refilled at `rate`
// tokens/second. rate <= 0 disables metering (take always succeeds).
// It is guarded by the gateway mutex — admission is already
// serialized there, and a bucket op is a few flops.
type bucket struct {
	tokens float64
	rate   float64
	burst  float64
	last   time.Time
}

// take refills for the elapsed time, then spends one token. On
// failure it returns how long until a token accrues — the request's
// Retry-After hint.
func (b *bucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	} else {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := 1 - b.tokens
	return false, time.Duration(need / b.rate * float64(time.Second))
}

// tenant is the gateway's per-tenant state: quota bucket, FIFO of
// admitted-but-undispatched requests, round-robin credit, counters,
// and the latency histogram behind /v1/stats. All fields except hist's
// interior are guarded by the gateway mutex.
type tenant struct {
	name   string
	bucket bucket
	weight int

	q        []*request
	inActive bool // queued in the gateway's active ring
	credit   int  // dequeues left in the current round-robin turn

	admitted  uint64
	completed uint64
	failed    uint64
	shed      uint64 // requests refused at admission, any 429 reason

	hist *stats.LatencyHist
}

// tenantFor returns (creating on first touch) the tenant record.
// Callers hold g.mu.
func (g *Gateway) tenantFor(name string) *tenant {
	if t, ok := g.tenants[name]; ok {
		return t
	}
	t := &tenant{
		name:   name,
		weight: g.weightFor(name),
		bucket: bucket{rate: g.cfg.TenantRate, burst: g.tenantBurst},
		hist:   stats.NewLatencyHist(g.cfg.Dispatchers),
	}
	g.tenants[name] = t
	return t
}

func (g *Gateway) weightFor(name string) int {
	if w, ok := g.cfg.TenantWeights[name]; ok && w > 0 {
		return w
	}
	return 1
}

// enqueueLocked appends req to its tenant's FIFO and links the tenant
// into the active ring if it was idle. Callers hold g.mu.
func (g *Gateway) enqueueLocked(t *tenant, req *request) {
	t.q = append(t.q, req)
	if !t.inActive {
		t.inActive = true
		t.credit = t.weight
		g.active = append(g.active, t)
	}
	g.queued++
}

// nextLocked pops the next request in weighted round-robin order: the
// tenant at the front of the active ring serves up to `weight`
// requests, then rotates to the back with a fresh credit. A tenant
// whose FIFO empties leaves the ring (and rejoins on its next
// enqueue), so an idle tenant costs nothing. Callers hold g.mu; the
// ring is non-empty.
func (g *Gateway) nextLocked() *request {
	t := g.active[0]
	req := t.q[0]
	t.q = t.q[1:]
	if len(t.q) == 0 {
		t.q = nil // release the drained FIFO's backing array
	}
	t.credit--
	switch {
	case len(t.q) == 0:
		g.active = g.active[1:]
		t.inActive = false
	case t.credit <= 0:
		g.active = append(g.active[1:], t)
		t.credit = t.weight
	}
	g.queued--
	return req
}
