// Package counter defines the dependency-counter abstraction that the
// sp-dag runtime is parameterized over, and implements the three
// algorithms compared in the paper's evaluation (§5) plus the runtime's
// default:
//
//   - Dynamic: the paper's in-counter (package core) — "dyn" in the
//     artifact's result files;
//   - FetchAdd: a single fetch-and-add cell — optimal at one core,
//     heavily contended beyond;
//   - FixedSNZI: a statically allocated complete SNZI tree of a given
//     depth, with operations hashed across the leaves;
//   - Adaptive: a cell that reacts to contention it observes on itself,
//     by promoting into the in-counter or (batched) by letting workers
//     buffer deltas against it — not in the paper; see DESIGN.md §6.
//
// A Counter tracks the unsatisfied dependencies of one finish vertex.
// A State is one dag vertex's capability to add a dependency
// (Increment, used by spawn) or discharge one (Decrement, used by
// signal). The call discipline matches PPoPP'17 Definition 1 and is
// enforced structurally by package spdag: each State is owned by one
// vertex, and Increment/Decrement is the owner's final use of it.
package counter

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// State is a dag vertex's view into the dependency counter of its
// finish vertex.
type State interface {
	// Increment registers one new dependency and splits the vertex's
	// capability into states for its two spawn children. g is the
	// caller's (typically worker-local) randomness source, used for the
	// dynamic algorithm's grow coin and the fixed algorithm's leaf
	// hashing; it must not be shared between concurrent callers.
	Increment(g *rng.Xoshiro256ss) (left, right State)
	// Decrement discharges one dependency; it returns true iff this
	// call brought the counter to zero, in which case the caller is the
	// unique party responsible for scheduling the finish vertex.
	Decrement() bool
}

// Releaser is optionally implemented by State implementations whose
// objects can be returned to a pool once consumed. The sp-dag runtime
// calls Release immediately after the owning vertex's terminal use of
// the State (its Increment or Decrement) — the point at which, under
// the Definition 1 discipline, no other party can ever touch the
// State again. Implementations whose states are shared between
// vertices (e.g. the fetch-and-add baseline, which hands one state to
// every vertex) must simply not implement the interface. The check is
// per State object, not per algorithm: the Adaptive counter
// legitimately mixes its shared non-releasable cell state with pooled
// releasable in-counter states under one Counter.
type Releaser interface {
	// Release returns the state's storage to its implementation's
	// pool. The state must not be used afterwards.
	Release()
}

// Counter is the dependency counter of a single finish vertex.
type Counter interface {
	// IsZero reports whether the counter is zero. It is a read-only
	// probe; readiness detection should use Decrement's return value.
	IsZero() bool
	// RootState returns the capability held by the single vertex the
	// finish vertex initially depends on. It must be called at most
	// once per counter.
	RootState() State
	// NodeCount reports how many memory cells (SNZI nodes, or 1 for a
	// flat cell) back this counter — the artifact's nb_incounter_nodes.
	NodeCount() int64
}

// Algorithm is a factory for dependency counters; it is the unit the
// evaluation sweeps over.
type Algorithm interface {
	Name() string
	New(initial int) Counter
}

// Parse maps an artifact-style algorithm name to an Algorithm:
// "fetchadd", "dyn" (with the given grow threshold), "snzi-D" for a
// fixed-depth tree of depth D, or "adaptive[:K[:batch]]" for the
// contention-adaptive counter promoting after K cell CAS failures
// (default DefaultContention; K = 0 promotes eagerly at creation,
// for sweeps that study the promoted regime itself), with an
// optional batched frontend flushing per-worker deltas every `batch`
// units (batch ≥ 2; omitted or 1 disables batching); threshold is the
// grow denominator of the in-counter the unbatched form promotes into.
func Parse(name string, threshold uint64) (Algorithm, error) {
	switch {
	case name == "fetchadd":
		return FetchAdd{}, nil
	case name == "dyn":
		return Dynamic{Threshold: threshold}, nil
	case name == "adaptive":
		return NewAdaptive(0, threshold), nil
	case strings.HasPrefix(name, "adaptive:"):
		parts := strings.Split(strings.TrimPrefix(name, "adaptive:"), ":")
		if len(parts) > 2 {
			return nil, fmt.Errorf("counter: bad adaptive spec %q (want adaptive[:K[:batch]])", name)
		}
		k, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("counter: bad adaptive contention threshold in %q (want adaptive:K, K ≥ 0)", name)
		}
		a := NewAdaptive(k, threshold)
		if k == 0 {
			a.Eager = true
		}
		if len(parts) == 2 {
			b, err := strconv.ParseUint(parts[1], 10, 64)
			if err != nil || b == 0 {
				return nil, fmt.Errorf("counter: bad adaptive batch threshold in %q (want adaptive:K:batch, batch ≥ 1)", name)
			}
			a.Batch = b
		}
		return a, nil
	case strings.HasPrefix(name, "snzi-"):
		d, err := strconv.Atoi(strings.TrimPrefix(name, "snzi-"))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("counter: bad fixed SNZI depth in %q", name)
		}
		return FixedSNZI{Depth: d}, nil
	default:
		return nil, fmt.Errorf("counter: unknown algorithm %q (want fetchadd, dyn, adaptive[:K[:batch]], or snzi-D)", name)
	}
}
