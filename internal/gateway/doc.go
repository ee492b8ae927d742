// Package gateway is the network front-end of the runtime — the
// ROADMAP's "millions of users" door. It wraps a long-lived
// repro.Runtime behind HTTP: computation templates registered by name
// (fib, fanin, sort, parfor, spin) are executed as Runs with a
// per-request deadline, behind an admission layer that keeps the
// runtime's hot path healthy under any offered load:
//
//   - a bounded admission queue feeds the runtime; when it is full, or
//     when the elastic worker pool has been pegged at its ceiling
//     under sustained injector backlog (sched.PeggedFor — the spawn
//     signal's own backlog sense), requests are shed with 429 and a
//     Retry-After hint instead of queueing without bound;
//   - per-tenant token buckets meter admission, so a tenant exceeding
//     its quota is throttled (shed first) while quota-respecting
//     tenants keep flowing;
//   - admitted requests dequeue in weighted round-robin order across
//     tenants (up to `weight` consecutive serves per turn), so one hot
//     tenant's backlog cannot starve the others' latency;
//   - a SIGTERM-shaped drain (Server.Serve on a cancelled context, or
//     Gateway.Close) stops admission with 503, completes every
//     admitted request through the runtime's own Close-drain
//     semantics, and only then releases the workers.
//
// Observability is part of the subsystem: per-tenant and per-template
// latency histograms (internal/stats.LatencyHist — lock-free
// per-dispatcher shards merged at snapshot) and shed/admission
// counters are exposed on GET /v1/stats as one JSON document alongside
// the runtime's own repro.Stats (promotions, steal split,
// spawned/retired workers, injector depth, pegged duration), so a
// harness scrapes one endpoint for a server-side artifact.
//
// cmd/reproserve is the binary; internal/workload's Uniform/HotTenant
// generators and `ppopp17bench -fig serve` drive it. DESIGN.md §9 has
// the admission protocol and the drain argument.
package gateway
