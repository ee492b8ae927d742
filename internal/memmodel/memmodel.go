// Package memmodel implements a discrete-step simulator for the
// asynchronous shared-memory model the paper's analysis is stated in
// (§1.1): threads communicate through atomic read, write,
// compare-and-swap and fetch-and-add steps, and contention is counted
// as memory stalls in the style of Fich, Hendler and Shavit (FOCS'05)
// and Dwork, Herlihy and Waarts (JACM'97): each non-trivial step on a
// location must operate in isolation, so whenever a non-trivial step
// executes on a location, every other thread currently poised to
// perform a non-trivial step on the same location incurs one stall.
//
// Simulated threads are goroutines, but they execute in strict
// lock-step with a central scheduler: a thread blocks at every shared
// memory access until the scheduler grants it, and the scheduler
// advances exactly one thread at a time. Between grants only the
// granted thread runs, so thread-local Go code needs no
// synchronization and runs race-free (the grant channels establish
// happens-before). The interleaving is chosen by a seeded random
// policy, making runs reproducible.
//
// This simulator exists because measuring contention natively is not
// meaningful under the Go runtime (the goroutine scheduler and cache
// hierarchy obscure it) and the reproduction host has few cores; in
// the model we can dial the processor count to hundreds and measure
// exactly the quantity Theorem 4.9 bounds.
package memmodel

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Addr identifies a simulated shared-memory word.
type Addr int32

// OpKind enumerates the simulated primitive steps.
type OpKind uint8

const (
	// OpRead is a trivial step: it cannot change the location and by
	// definition incurs and causes no stalls (concurrent reads are free,
	// as in the CRQW model the paper cites).
	OpRead OpKind = iota
	// OpWrite unconditionally stores a value (non-trivial).
	OpWrite
	// OpCAS compares-and-swaps (non-trivial, even when it fails: it
	// "might change" the location, which is the paper's criterion).
	OpCAS
	// OpFAA fetches-and-adds (non-trivial).
	OpFAA
	// opYield is an internal scheduling point with no memory effect,
	// used by thread code to wait for other threads to make progress
	// (e.g. for a task pool to refill) without spinning.
	opYield
)

// nonTrivial reports whether the op kind can change memory.
func (k OpKind) nonTrivial() bool { return k == OpWrite || k == OpCAS || k == OpFAA }

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCAS:
		return "cas"
	case OpFAA:
		return "faa"
	default:
		return "yield"
	}
}

type request struct {
	kind       OpKind
	loc        Addr
	arg1, arg2 uint64
}

type thread struct {
	id      int
	sim     *Sim
	body    func(*Env)
	req     request
	result  uint64
	settled chan struct{} // thread → scheduler: request published or finished
	grant   chan struct{} // scheduler → thread: request executed
	done    bool

	// Bracketed high-level operation accounting.
	label    string
	opSteps  uint64
	opStalls uint64
	agg      map[string]*OpStats
}

// OpStats aggregates the cost of all high-level operations with one
// label on one thread (merged across threads by Sim.Stats).
type OpStats struct {
	Label     string
	Count     uint64
	Steps     uint64 // primitive shared-memory steps
	Stalls    uint64 // stalls incurred while poised
	MaxStalls uint64 // worst single operation
	MaxSteps  uint64
}

func (o *OpStats) merge(other *OpStats) {
	o.Count += other.Count
	o.Steps += other.Steps
	o.Stalls += other.Stalls
	if other.MaxStalls > o.MaxStalls {
		o.MaxStalls = other.MaxStalls
	}
	if other.MaxSteps > o.MaxSteps {
		o.MaxSteps = other.MaxSteps
	}
}

// StepsPerOp returns mean primitive steps per operation.
func (o *OpStats) StepsPerOp() float64 {
	if o.Count == 0 {
		return 0
	}
	return float64(o.Steps) / float64(o.Count)
}

// StallsPerOp returns mean stalls per operation — the measured
// amortized contention.
func (o *OpStats) StallsPerOp() float64 {
	if o.Count == 0 {
		return 0
	}
	return float64(o.Stalls) / float64(o.Count)
}

func (o *OpStats) String() string {
	return fmt.Sprintf("%s: n=%d steps/op=%.2f stalls/op=%.3f max-stalls=%d",
		o.Label, o.Count, o.StepsPerOp(), o.StallsPerOp(), o.MaxStalls)
}

// Policy selects how the scheduler picks the next poised thread.
type Policy int

const (
	// RandomPolicy picks uniformly at random (the neutral scheduler).
	RandomPolicy Policy = iota
	// AdversarialPolicy biases the schedule toward contention: half of
	// the time it steps a thread poised on the location with the most
	// poised non-trivial steps (correlating bursts on hot words), and
	// half of the time it picks randomly (so off-location threads keep
	// making progress and the poised set stays large). A *pure*
	// drain-the-hottest-location greedy is deliberately not used: it
	// starves the threads that would join the convoy, collapsing the
	// very concurrency that produces stalls.
	AdversarialPolicy
)

func (p Policy) String() string {
	if p == AdversarialPolicy {
		return "adversarial"
	}
	return "random"
}

// Sim is one simulation instance: a memory, a set of threads, and the
// stepping policy.
type Sim struct {
	mem     []uint64
	threads []*thread
	g       *rng.Xoshiro256ss
	policy  Policy
	steps   uint64
	stalls  uint64
	ran     bool
}

// New creates a simulator with the given policy seed and the neutral
// random scheduler.
func New(seed uint64) *Sim {
	return &Sim{g: rng.NewXoshiro(seed)}
}

// NewWithPolicy creates a simulator with an explicit scheduling
// policy.
func NewWithPolicy(seed uint64, p Policy) *Sim {
	s := New(seed)
	s.policy = p
	return s
}

// Alloc creates a new shared word with the given initial value.
// Allocation itself is not a shared-memory step (the paper's model
// charges only accesses).
func (s *Sim) Alloc(initial uint64) Addr {
	s.mem = append(s.mem, initial)
	return Addr(len(s.mem) - 1)
}

// Peek reads a location without charging a step (for assertions after
// the run).
func (s *Sim) Peek(a Addr) uint64 { return s.mem[a] }

// SetWord writes a location directly without charging a step. It is
// for pre-run construction only; it must not be called once Run has
// started.
func (s *Sim) SetWord(a Addr, v uint64) {
	if s.ran {
		panic("memmodel: SetWord after Run")
	}
	s.mem[a] = v
}

// Spawn registers a simulated thread. All threads must be registered
// before Run.
func (s *Sim) Spawn(body func(*Env)) {
	t := &thread{
		id:      len(s.threads),
		sim:     s,
		body:    body,
		settled: make(chan struct{}),
		grant:   make(chan struct{}),
		agg:     map[string]*OpStats{},
	}
	s.threads = append(s.threads, t)
}

// TotalSteps returns the number of primitive steps executed.
func (s *Sim) TotalSteps() uint64 { return s.steps }

// TotalStalls returns the total stalls incurred across all threads.
func (s *Sim) TotalStalls() uint64 { return s.stalls }

// Run executes all threads to completion under the random stepping
// policy. It may be called once.
func (s *Sim) Run() {
	if s.ran {
		panic("memmodel: Run called twice")
	}
	s.ran = true
	for _, t := range s.threads {
		t := t
		go func() {
			env := &Env{t: t}
			// Initial handshake: the body must not run (or touch any
			// thread-shared Go state) until the scheduler grants it a
			// turn, so that all thread code executes inside serialized
			// granted windows.
			env.Yield()
			t.body(env)
			t.done = true
			t.settled <- struct{}{}
		}()
	}
	poised := make([]*thread, 0, len(s.threads))
	// Wait for every thread to settle (publish a request or finish).
	for _, t := range s.threads {
		<-t.settled
		if !t.done {
			poised = append(poised, t)
		}
	}
	for len(poised) > 0 {
		i := s.pick(poised)
		t := poised[i]
		s.execute(t, poised)
		t.grant <- struct{}{}
		// Wait for it to settle again.
		<-t.settled
		if t.done {
			poised[i] = poised[len(poised)-1]
			poised = poised[:len(poised)-1]
		}
	}
}

// pick chooses the index of the next poised thread to step.
func (s *Sim) pick(poised []*thread) int {
	if s.policy == RandomPolicy || len(poised) == 1 || s.g.Uint64n(2) == 0 {
		return int(s.g.Uint64n(uint64(len(poised))))
	}
	// Adversarial half: count poised non-trivial steps per location;
	// among threads targeting the hottest location, pick randomly.
	counts := map[Addr]int{}
	for _, t := range poised {
		if t.req.kind.nonTrivial() {
			counts[t.req.loc]++
		}
	}
	bestLoc, best := Addr(-1), 0
	for loc, n := range counts {
		if n > best || (n == best && loc < bestLoc) {
			bestLoc, best = loc, n
		}
	}
	if best <= 1 {
		return int(s.g.Uint64n(uint64(len(poised))))
	}
	k := int(s.g.Uint64n(uint64(best)))
	for i, t := range poised {
		if t.req.kind.nonTrivial() && t.req.loc == bestLoc {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return 0 // unreachable
}

// execute applies t's pending request to memory and charges stalls to
// the other poised threads contending for the same location.
func (s *Sim) execute(t *thread, poised []*thread) {
	r := t.req
	if r.kind == opYield {
		return
	}
	s.steps++
	t.opSteps++
	switch r.kind {
	case OpRead:
		t.result = s.mem[r.loc]
	case OpWrite:
		s.mem[r.loc] = r.arg1
		t.result = 0
	case OpCAS:
		if s.mem[r.loc] == r.arg1 {
			s.mem[r.loc] = r.arg2
			t.result = 1
		} else {
			t.result = 0
		}
	case OpFAA:
		t.result = s.mem[r.loc]
		s.mem[r.loc] += r.arg1
	}
	if !r.kind.nonTrivial() {
		return
	}
	for _, other := range poised {
		if other != t && other.req.kind.nonTrivial() && other.req.loc == r.loc {
			other.opStalls++
			s.stalls++
		}
	}
}

// Stats merges per-thread operation statistics across all threads,
// sorted by label. Call after Run.
func (s *Sim) Stats() []*OpStats {
	merged := map[string]*OpStats{}
	for _, t := range s.threads {
		for label, st := range t.agg {
			m := merged[label]
			if m == nil {
				m = &OpStats{Label: label}
				merged[label] = m
			}
			m.merge(st)
		}
	}
	out := make([]*OpStats, 0, len(merged))
	for _, m := range merged {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// StatsFor returns the merged stats for one label (nil if absent).
func (s *Sim) StatsFor(label string) *OpStats {
	for _, st := range s.Stats() {
		if st.Label == label {
			return st
		}
	}
	return nil
}

// Env is a thread's interface to the simulated memory. It must only
// be used from within that thread's body.
type Env struct {
	t *thread
}

func (e *Env) step(r request) uint64 {
	t := e.t
	t.req = r
	t.settled <- struct{}{}
	<-t.grant
	return t.result
}

// Read returns the value of a location (trivial step).
func (e *Env) Read(a Addr) uint64 { return e.step(request{kind: OpRead, loc: a}) }

// Write stores v into a location (non-trivial step).
func (e *Env) Write(a Addr, v uint64) { e.step(request{kind: OpWrite, loc: a, arg1: v}) }

// CAS compares-and-swaps a location (non-trivial step); it reports
// whether the swap happened.
func (e *Env) CAS(a Addr, old, new uint64) bool {
	return e.step(request{kind: OpCAS, loc: a, arg1: old, arg2: new}) == 1
}

// FAA adds delta to a location and returns its previous value
// (non-trivial step).
func (e *Env) FAA(a Addr, delta uint64) uint64 {
	return e.step(request{kind: OpFAA, loc: a, arg1: delta})
}

// Yield cedes the thread's turn without a memory step, letting other
// threads progress (used to wait for work without modeling a spin).
func (e *Env) Yield() { e.step(request{kind: opYield}) }

// Sim returns the simulator this environment belongs to, for
// allocation-time bookkeeping by data structures built over the model.
func (e *Env) Sim() *Sim { return e.t.sim }

// Alloc allocates a fresh shared word from thread code. The word
// becomes visible to other threads only through addresses written to
// shared memory, mirroring real allocation.
func (e *Env) Alloc(initial uint64) Addr {
	// Memory growth must be serialized with execution; route it through
	// a yield-style step so only one thread allocates at a time.
	t := e.t
	t.req = request{kind: opYield}
	t.settled <- struct{}{}
	<-t.grant
	return t.sim.Alloc(initial)
}

// Begin opens a bracketed high-level operation; all steps and stalls
// until End are charged to label.
func (e *Env) Begin(label string) {
	t := e.t
	t.label = label
	t.opSteps = 0
	t.opStalls = 0
}

// End closes the current bracket and accumulates its cost.
func (e *Env) End() {
	t := e.t
	if t.label == "" {
		return
	}
	st := t.agg[t.label]
	if st == nil {
		st = &OpStats{Label: t.label}
		t.agg[t.label] = st
	}
	st.Count++
	st.Steps += t.opSteps
	st.Stalls += t.opStalls
	if t.opStalls > st.MaxStalls {
		st.MaxStalls = t.opStalls
	}
	if t.opSteps > st.MaxSteps {
		st.MaxSteps = t.opSteps
	}
	t.label = ""
}
