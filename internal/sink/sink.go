// Package sink is the pluggable persistence layer for completed
// computations: the gateway publishes one RunRecord per settled
// request through a coalescing Sink, which batches records in
// per-shard buffers and hands them to a Backend (in-memory ring,
// append-only JSONL file, or an out-of-process HTTP collector) in
// WriteBatch calls.
//
// The coalescing discipline is the VSA harness's accounting
// (SNIPPETS.md Snippet 2) applied to the publish path: every Publish
// is one logical write, every WriteBatch one backend call, and
// batching by threshold or interval drives backend_calls far below
// logical_writes without dropping records — Stats exposes both ends
// so the ratio is measurable end to end (BenchmarkSinkCoalescing
// gates it in CI).
//
// Soundness vs the drain path: a record buffered in a shard is not
// yet durable, but it is still *visible* — Lookup consults the
// unflushed buffers before the backend — and Close performs a final
// flush, so the gateway's drain ordering (dispatchers exit, sink
// flush, runtime close) loses no admitted run's record. The only
// records ever dropped are batches a backend refused (counted in
// Stats.Dropped), never records a flush simply had not reached.
package sink

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Status classifies a completed run's outcome in its RunRecord.
type Status string

// The run outcome taxonomy. "ok" carries a Result when the template
// has one; the failure statuses carry Error instead.
const (
	StatusOK       Status = "ok"       // computation completed
	StatusFailed   Status = "failed"   // computation error (including deadline)
	StatusCanceled Status = "canceled" // aborted by DELETE /v1/runs/{id} or client cancel
	StatusHung     Status = "hung"     // force-failed by the hung-request reaper (504)
)

// RunRecord is one completed computation as the sink persists it:
// identity, outcome, timing, and the run's approximate work counters
// (runtime-global deltas over the run's span — exact when runs execute
// one at a time, attribution blurred under concurrency).
type RunRecord struct {
	ID       string    `json:"run_id"`
	Tenant   string    `json:"tenant"`
	Template string    `json:"template"`
	N        uint64    `json:"n"`
	Status   Status    `json:"status"`
	Result   any       `json:"result,omitempty"` // template's serializable result (StatusOK only)
	Error    string    `json:"error,omitempty"`
	Enqueued time.Time `json:"enqueued"`
	Finished time.Time `json:"finished"`
	QueueMS  float64   `json:"queue_ms"`
	RunMS    float64   `json:"run_ms"`
	Vertices int64     `json:"vertices,omitempty"`
	Executed uint64    `json:"executed,omitempty"`
	Steals   uint64    `json:"steals,omitempty"`
}

// Backend is a place RunRecords go: it receives batches (never empty)
// and is closed exactly once, after the final flush. WriteBatch must
// be safe for concurrent calls — threshold flushes of different
// shards overlap.
type Backend interface {
	WriteBatch(ctx context.Context, recs []*RunRecord) error
	Close() error
}

// Querier is the optional lookup side of a Backend (the in-memory
// Ring implements it). A Sink over a non-Querier backend can still
// answer Lookup for records its buffers have not flushed yet.
type Querier interface {
	Lookup(id string) (*RunRecord, bool)
}

// Stats is the sink's coalescing ledger, the VSA accounting pair plus
// flush/drop visibility. LogicalWrites counts every Publish;
// BackendCalls counts WriteBatch invocations; their ratio is the
// coalescing factor. Dropped counts records a backend write refused —
// the only way the sink ever loses a record.
type Stats struct {
	LogicalWrites uint64 `json:"logical_writes"`
	BackendCalls  uint64 `json:"backend_calls"`
	Flushes       uint64 `json:"flushes"`
	Dropped       uint64 `json:"dropped"`
}

// Sink coalesces RunRecord publishes into batched Backend writes:
// records append to one of a few sharded buffers (shard chosen by id
// hash, so publishers rarely contend on one lock), a shard reaching
// Threshold flushes itself in one WriteBatch, and a background ticker
// flushes every partial buffer each Interval so a quiet sink still
// converges to durable. Create with New, stop with Close (final
// flush, then Backend.Close).
type Sink struct {
	backend   Backend
	querier   Querier // backend's Querier side, nil if it has none
	threshold int
	interval  time.Duration

	shards []sinkShard

	logical atomic.Uint64
	calls   atomic.Uint64
	flushes atomic.Uint64
	dropped atomic.Uint64

	closed    atomic.Bool
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

type sinkShard struct {
	mu  sync.Mutex
	buf []*RunRecord
	// flight holds the batches taken out of buf whose backend write has
	// not returned yet, so Lookup still finds their records: without it
	// a record would be in neither the buffer nor the backend for the
	// duration of the write.
	flight [][]*RunRecord
	_      [16]byte // keep shards off one cache line under fan-in publish
}

// take moves the shard's buffer into flight and returns it (nil when
// the buffer is empty). The caller holds sh.mu, writes the batch to the
// backend and then calls landed.
func (sh *sinkShard) take() []*RunRecord {
	batch := sh.buf
	if len(batch) > 0 {
		sh.buf = nil
		sh.flight = append(sh.flight, batch)
	}
	return batch
}

// landed drops batch from flight once its backend write has returned.
func (sh *sinkShard) landed(batch []*RunRecord) {
	sh.mu.Lock()
	for i, b := range sh.flight {
		if &b[0] == &batch[0] {
			last := len(sh.flight) - 1
			sh.flight[i] = sh.flight[last]
			sh.flight[last] = nil
			sh.flight = sh.flight[:last]
			break
		}
	}
	sh.mu.Unlock()
}

// Option configures a Sink at construction.
type Option func(*Sink)

// WithThreshold sets the per-shard batch threshold (records buffered
// before a flush; default 32). 1 disables coalescing: every Publish
// is one backend call — the baseline the coalescing figure compares
// against.
func WithThreshold(n int) Option {
	return func(s *Sink) {
		if n > 0 {
			s.threshold = n
		}
	}
}

// WithInterval sets the background flush interval bounding how long a
// record can sit buffered on a quiet sink (default 500ms). ≤ 0 keeps
// the default.
func WithInterval(d time.Duration) Option {
	return func(s *Sink) {
		if d > 0 {
			s.interval = d
		}
	}
}

// WithShards sets the publish-side buffer count (rounded up to a
// power of two, default 8). More shards mean less publisher
// contention but more partial buffers per interval flush.
func WithShards(n int) Option {
	return func(s *Sink) {
		if n > 0 {
			p := 1
			for p < n {
				p <<= 1
			}
			s.shards = make([]sinkShard, p)
		}
	}
}

// New builds a coalescing Sink over backend and starts its interval
// flusher. Close the sink when done; closing flushes and then closes
// the backend.
func New(backend Backend, opts ...Option) *Sink {
	s := &Sink{
		backend:   backend,
		threshold: 32,
		interval:  500 * time.Millisecond,
		shards:    make([]sinkShard, 8),
		stop:      make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.querier, _ = backend.(Querier)
	s.wg.Add(1)
	go s.flusher()
	return s
}

// Threshold returns the configured per-shard batch threshold.
func (s *Sink) Threshold() int { return s.threshold }

// Publish records one completed run: one logical write, buffered for
// a batched backend write. It never blocks on the backend unless this
// publish fills its shard to the threshold (the filler pays for the
// flush, everyone else appends under a short lock). Publishing to a
// closed sink drops the record (counted).
func (s *Sink) Publish(rec *RunRecord) {
	if rec == nil {
		return
	}
	s.logical.Add(1)
	if s.closed.Load() {
		s.dropped.Add(1)
		return
	}
	sh := &s.shards[fnv1a(rec.ID)&uint32(len(s.shards)-1)]
	sh.mu.Lock()
	sh.buf = append(sh.buf, rec)
	var batch []*RunRecord
	if len(sh.buf) >= s.threshold {
		batch = sh.take()
	}
	sh.mu.Unlock()
	if batch != nil {
		s.write(batch)
		sh.landed(batch)
	}
}

// Lookup finds a record by id: the unflushed buffer and the batches in
// flight to the backend first (a record is visible from the moment
// Publish returns, without a gap while it is being flushed), then the
// backend's Querier if it has one. Records already flushed to a
// non-queryable backend (JSONL, HTTP) are not found here — query the
// backend's own store instead.
func (s *Sink) Lookup(id string) (*RunRecord, bool) {
	sh := &s.shards[fnv1a(id)&uint32(len(s.shards)-1)]
	sh.mu.Lock()
	rec := find(sh.buf, id)
	for i := 0; rec == nil && i < len(sh.flight); i++ {
		rec = find(sh.flight[i], id)
	}
	sh.mu.Unlock()
	if rec != nil {
		return rec, true
	}
	if s.querier != nil {
		return s.querier.Lookup(id)
	}
	return nil, false
}

// find returns the newest record with the given id in batch, or nil.
func find(batch []*RunRecord, id string) *RunRecord {
	for i := len(batch) - 1; i >= 0; i-- {
		if batch[i].ID == id {
			return batch[i]
		}
	}
	return nil
}

// Flush pushes every buffered record to the backend in one WriteBatch
// (no-op when nothing is buffered) and returns the backend's error if
// the write failed (the batch is counted dropped, not retried).
func (s *Sink) Flush(ctx context.Context) error {
	var batch []*RunRecord
	taken := make([][]*RunRecord, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		taken[i] = sh.take()
		sh.mu.Unlock()
		batch = append(batch, taken[i]...)
	}
	if len(batch) == 0 {
		return nil
	}
	err := s.writeCtx(ctx, batch)
	for i, b := range taken {
		if b != nil {
			s.shards[i].landed(b)
		}
	}
	return err
}

// Stats snapshots the coalescing ledger.
func (s *Sink) Stats() Stats {
	return Stats{
		LogicalWrites: s.logical.Load(),
		BackendCalls:  s.calls.Load(),
		Flushes:       s.flushes.Load(),
		Dropped:       s.dropped.Load(),
	}
}

// Close stops the interval flusher, flushes every buffered record,
// and closes the backend. Idempotent; every call returns the first
// Close's error (flush error wins over backend close error).
func (s *Sink) Close() error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.stop)
		s.wg.Wait()
		s.closeErr = s.Flush(context.Background())
		if err := s.backend.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// flusher is the interval-flush goroutine: it bounds the residence
// time of a buffered record on a sink too quiet to hit thresholds.
func (s *Sink) flusher() {
	defer s.wg.Done()
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			_ = s.Flush(context.Background())
		}
	}
}

func (s *Sink) write(batch []*RunRecord) {
	_ = s.writeCtx(context.Background(), batch)
}

func (s *Sink) writeCtx(ctx context.Context, batch []*RunRecord) error {
	s.calls.Add(1)
	s.flushes.Add(1)
	if err := s.backend.WriteBatch(ctx, batch); err != nil {
		s.dropped.Add(uint64(len(batch)))
		return err
	}
	return nil
}

// fnv1a hashes a run id onto a shard (FNV-1a, 32-bit).
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
