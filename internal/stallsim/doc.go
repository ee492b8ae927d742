// Package stallsim re-expresses the paper's counter algorithms — the
// in-counter, fetch-and-add, and fixed-depth SNZI — as step machines
// over the simulated shared memory of internal/memmodel, and drives
// the fanin and indegree2 workloads through them to measure contention
// (stalls per operation) in exactly the model of the paper's Theorem
// 4.9: each non-trivial step on a location stalls every other thread
// poised to hit the same location.
//
// The native packages (internal/snzi, internal/core) execute on real
// atomics for throughput experiments; this package exists because
// contention is a model-level quantity that real hardware and the Go
// scheduler obscure. The simulated words use internal/snzi's exported
// layout helpers (PackCV, PackRoot, PackInd and their decoders), so
// the layout is shared, not copied. The arrive/depart/grow control flow
// is transcribed from internal/snzi; TestSimMatchesNativeOnRandomOps
// runs one op sequence on both trees and compares them node by node,
// and the pinned stall figure in internal/harness's figure golden
// catches any change to the model's numbers. The key check: the
// in-counter's stalls/op stays O(1) as simulated processor counts grow
// far beyond the host, while the fetch-and-add cell grows linearly
// (Theorems 4.8/4.9).
package stallsim
