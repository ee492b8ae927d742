package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call the benchmark made into the program (or one
// interval the program reported back, laid in as a child). Start and
// End are nanoseconds since the tracer started; Parent indexes the
// span that caused this one (-1 for a root); spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: every method is a no-op, so the untraced run
// pays one nil check per call site and nothing else.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// everyOther is t for even i and tracing-off for odd i: a traced window
// traces every other op, so that traced and untraced op times come from
// the same runtime at the same time and their ratio is the tracing
// overhead.
func (t *tracer) everyOther(i int) *tracer {
	if i%2 == 1 {
		return nil
	}
	return t
}

// begin opens a span and returns its index (the parent argument of its
// children, the argument of end).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// lay records a child interval the program reported (a response's
// queue_ms, run_ms) that ended at end and lasted d; it returns the
// child's start so consecutive intervals can be stacked right to left.
func (t *tracer) lay(name string, parent, op int, end int64, d time.Duration) int64 {
	if t == nil {
		return 0
	}
	start := end - int64(d)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	t.mu.Unlock()
	return start
}

// now is the tracer's clock, for laying intervals in.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (children clipped to the
// parent, overlapping children counted once).
func selfTimes(spans []span) map[string]time.Duration {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		covered := int64(0)
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		edge := s.Start
		for _, k := range ks {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// write dumps the spans as JSON under dir (created if missing).
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
