package sink

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingBackend records batches and counts calls; optionally fails
// every write.
type countingBackend struct {
	mu      sync.Mutex
	batches [][]*RunRecord
	calls   atomic.Uint64
	recs    atomic.Uint64
	fail    bool
	closed  atomic.Uint64
}

func (b *countingBackend) WriteBatch(_ context.Context, recs []*RunRecord) error {
	b.calls.Add(1)
	if b.fail {
		return errors.New("backend down")
	}
	b.recs.Add(uint64(len(recs)))
	b.mu.Lock()
	cp := make([]*RunRecord, len(recs))
	copy(cp, recs)
	b.batches = append(b.batches, cp)
	b.mu.Unlock()
	return nil
}

func (b *countingBackend) Close() error {
	b.closed.Add(1)
	return nil
}

func rec(id string) *RunRecord {
	return &RunRecord{ID: id, Template: "spin", Tenant: "t0", Status: StatusOK}
}

// TestThresholdCoalescing pins the VSA accounting: N logical writes
// through threshold T produce about N/T backend calls, and no record
// is lost.
func TestThresholdCoalescing(t *testing.T) {
	be := &countingBackend{}
	s := New(be, WithThreshold(16), WithShards(1), WithInterval(time.Hour))
	const n = 16 * 20
	for i := 0; i < n; i++ {
		s.Publish(rec(fmt.Sprintf("r%d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.LogicalWrites != n {
		t.Fatalf("LogicalWrites = %d, want %d", st.LogicalWrites, n)
	}
	if st.BackendCalls != 20 {
		t.Fatalf("BackendCalls = %d, want 20 (every flush at the threshold)", st.BackendCalls)
	}
	if st.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", st.Dropped)
	}
	if got := be.recs.Load(); got != n {
		t.Fatalf("backend received %d records, want %d", got, n)
	}
}

// TestIntervalFlush: a quiet sink below threshold still converges to
// the backend within the interval.
func TestIntervalFlush(t *testing.T) {
	be := &countingBackend{}
	s := New(be, WithThreshold(1000), WithInterval(10*time.Millisecond))
	defer s.Close()
	s.Publish(rec("lonely"))
	deadline := time.Now().Add(2 * time.Second)
	for be.recs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval flusher never delivered the buffered record")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLookupUnflushed: a published record is visible through Lookup
// before any flush, and still visible (via the ring Querier) after.
func TestLookupUnflushed(t *testing.T) {
	ring := NewRing(8)
	s := New(ring, WithThreshold(100), WithInterval(time.Hour))
	defer s.Close()
	s.Publish(rec("early"))
	if _, ok := s.Lookup("early"); !ok {
		t.Fatal("Lookup missed an unflushed record")
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, ok := s.Lookup("early")
	if !ok || got.ID != "early" {
		t.Fatal("Lookup missed a flushed record the ring holds")
	}
	if _, ok := s.Lookup("never"); ok {
		t.Fatal("Lookup invented a record")
	}
}

// gatedRing is a ring whose writes wait for the gate, holding a batch
// in flight for as long as the test wants.
type gatedRing struct {
	*Ring
	entered chan struct{}
	gate    chan struct{}
}

func (b *gatedRing) WriteBatch(ctx context.Context, recs []*RunRecord) error {
	b.entered <- struct{}{}
	<-b.gate
	return b.Ring.WriteBatch(ctx, recs)
}

// TestLookupDuringFlush: a record stays visible while its batch is on
// its way to the backend — out of the buffer, not yet in the ring — on
// both the threshold path and the Flush path, and is found in the ring
// afterwards with nothing left in flight.
func TestLookupDuringFlush(t *testing.T) {
	for _, path := range []string{"threshold", "flush"} {
		be := &gatedRing{Ring: NewRing(8), entered: make(chan struct{}), gate: make(chan struct{})}
		threshold := 1
		if path == "flush" {
			threshold = 100
		}
		s := New(be, WithThreshold(threshold), WithInterval(time.Hour))
		done := make(chan struct{})
		go func() {
			s.Publish(rec("moving"))
			if path == "flush" {
				s.Flush(context.Background())
			}
			close(done)
		}()
		<-be.entered // the batch has left the buffer and the write is parked
		if _, ok := s.Lookup("moving"); !ok {
			t.Fatalf("%s: Lookup missed a record in flight to the backend", path)
		}
		close(be.gate)
		<-done
		if _, ok := s.Lookup("moving"); !ok {
			t.Fatalf("%s: Lookup missed the record after it landed", path)
		}
		for i := range s.shards {
			if n := len(s.shards[i].flight); n != 0 {
				t.Fatalf("%s: shard %d still lists %d batches in flight", path, i, n)
			}
		}
		s.Close() // nothing left to write: the gate is not crossed again
	}
}

// TestDroppedAccounting: a refusing backend costs the batch, is
// counted, and never blocks publishes.
func TestDroppedAccounting(t *testing.T) {
	be := &countingBackend{fail: true}
	s := New(be, WithThreshold(4), WithShards(1), WithInterval(time.Hour))
	for i := 0; i < 8; i++ {
		s.Publish(rec(fmt.Sprintf("r%d", i)))
	}
	_ = s.Close()
	if st := s.Stats(); st.Dropped != 8 {
		t.Fatalf("Dropped = %d, want 8", st.Dropped)
	}
}

// TestPublishAfterClose: late publishes are dropped, not delivered
// and not a panic.
func TestPublishAfterClose(t *testing.T) {
	be := &countingBackend{}
	s := New(be)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s.Publish(rec("late"))
	if st := s.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if be.closed.Load() != 1 {
		t.Fatalf("backend closed %d times, want 1", be.closed.Load())
	}
}

// TestConcurrentPublish is the fan-in shape under -race: many
// publishers, every record accounted for exactly once.
func TestConcurrentPublish(t *testing.T) {
	be := &countingBackend{}
	s := New(be, WithThreshold(32))
	const (
		publishers = 8
		perPub     = 500
	)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				s.Publish(rec(fmt.Sprintf("p%d-r%d", p, i)))
			}
		}(p)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if want := uint64(publishers * perPub); st.LogicalWrites != want || be.recs.Load() != want {
		t.Fatalf("logical=%d delivered=%d, want both %d", st.LogicalWrites, be.recs.Load(), want)
	}
	if st.BackendCalls >= st.LogicalWrites/8 {
		t.Fatalf("coalescing too weak: %d calls for %d writes", st.BackendCalls, st.LogicalWrites)
	}
}

// TestRingEviction pins the memory bound: capacity records maximum,
// oldest evicted, index consistent.
func TestRingEviction(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		if err := r.WriteBatch(context.Background(), []*RunRecord{rec(fmt.Sprintf("r%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Evicted() != 6 {
		t.Fatalf("Evicted = %d, want 6", r.Evicted())
	}
	if _, ok := r.Lookup("r5"); ok {
		t.Fatal("evicted record still resolvable")
	}
	for i := 6; i < 10; i++ {
		if _, ok := r.Lookup(fmt.Sprintf("r%d", i)); !ok {
			t.Fatalf("recent record r%d missing", i)
		}
	}
}

// TestJSONLRoundTrip: write through the sink, read back, same ids.
func TestJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := NewJSONL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(j, WithThreshold(4), WithShards(1), WithInterval(time.Hour))
	for i := 0; i < 10; i++ {
		s.Publish(rec(fmt.Sprintf("r%d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, err := ReadJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("read %d records, want 10", len(recs))
	}
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.ID] = true
	}
	for i := 0; i < 10; i++ {
		if !seen[fmt.Sprintf("r%d", i)] {
			t.Fatalf("record r%d missing from file", i)
		}
	}
}

// TestJSONLRotation: segments seal at the size bound and every
// record survives across them.
func TestJSONLRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := NewJSONL(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := j.WriteBatch(context.Background(), []*RunRecord{rec(fmt.Sprintf("r%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Rotations() == 0 {
		t.Fatal("expected at least one rotation at a 512-byte bound")
	}
	var total int
	segs, _ := filepath.Glob(path + ".*")
	for _, seg := range append(segs, path) {
		recs, err := ReadJSONL(seg)
		if err != nil {
			t.Fatalf("%s: %v", seg, err)
		}
		total += len(recs)
	}
	if total != n {
		t.Fatalf("segments hold %d records, want %d", total, n)
	}
	// A fresh JSONL on the same path resumes numbering rather than
	// clobbering a sealed segment.
	j2, err := NewJSONL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j2.seq != int(j.Rotations()) {
		t.Fatalf("resumed seq = %d, want %d", j2.seq, j.Rotations())
	}
	j2.Close()
}

// TestJSONLTornTail: a partial final line (crash signature) is
// tolerated; an interior corrupt line is an error.
func TestJSONLTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := NewJSONL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteBatch(context.Background(), []*RunRecord{rec("whole")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"run_id":"torn","stat`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err := ReadJSONL(path)
	if err != nil {
		t.Fatalf("torn tail should read cleanly: %v", err)
	}
	if len(recs) != 1 || recs[0].ID != "whole" {
		t.Fatalf("got %d records, want the 1 whole one", len(recs))
	}

	// Now make the torn line interior: that is corruption, not a torn
	// tail, and must be reported.
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n{\"run_id\":\"after\",\"status\":\"ok\",\"enqueued\":\"0001-01-01T00:00:00Z\",\"finished\":\"0001-01-01T00:00:00Z\",\"queue_ms\":0,\"run_ms\":0,\"tenant\":\"\",\"template\":\"\",\"n\":0}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ReadJSONL(path); err == nil {
		t.Fatal("interior corruption went unreported")
	}
}
