package nested

import (
	"context"
	"sync/atomic"
	"time"
)

// This file is the per-run observability surface: every Run can be
// identified (a runtime-assigned id), timed, and attributed an
// approximate slice of the runtime's work counters — the raw material
// a persistence layer (internal/sink, via the gateway) turns into a
// RunRecord. It deliberately costs nothing when unused: the fast path
// in run() is untouched unless the caller asks for the info through
// RunContextInfo.

// RunInfo describes one completed Run (see RunContextInfo): its runtime-assigned id (unique within the
// Runtime, monotonically increasing), wall-clock span, outcome, and
// work counters.
//
// Vertices, Executed, and Steals are runtime-global counter deltas
// over the run's span: exact when runs execute one at a time, and an
// approximation that blurs attribution across overlapping runs —
// fine for the telemetry they feed, never for correctness decisions.
type RunInfo struct {
	ID    uint64
	Start time.Time
	End   time.Time
	Err   error

	Vertices int64
	Executed uint64
	Steals   uint64
}

// runSeq hands out RunInfo.IDs; a Runtime field initialized by New
// would also do, but an atomic here keeps the Runtime struct and New
// untouched by the zero-cost-when-unused contract.
type runSeq struct{ n atomic.Uint64 }

func (s *runSeq) next() uint64 { return s.n.Add(1) }

// RunContextInfo is RunContext, additionally returning the run's
// RunInfo. The error return equals info.Err; it is repeated so the
// call composes like every other Run variant.
func (r *Runtime) RunContextInfo(ctx context.Context, f Task) (RunInfo, error) {
	info := RunInfo{ID: r.seq.next(), Start: time.Now()}
	st0 := r.sched.Stats()
	v0 := r.dag.VertexCount()
	_, err := r.run(ctx, f)
	st1 := r.sched.Stats()
	info.End = time.Now()
	info.Err = err
	info.Vertices = r.dag.VertexCount() - v0
	info.Executed = st1.Executed - st0.Executed
	info.Steals = st1.Steals - st0.Steals
	return info, err
}
