package sched

// Tests for the topology layer under the steal loop: the two-phase
// (local-then-remote) victim order, the
// least-loaded-node spawn placement of the elastic pool, and the
// per-node freelists across park/retire churn. Everything runs on a
// synthetic topology, so these tests exercise the multi-node code
// paths on any host, including the 1-core CI runner.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/spdag"
	"repro/internal/topology"
)

// TestTopologyVictimLists pins the structural fact the two-phase order
// is built on: each worker's local list is exactly its same-node peers
// (minus itself) and its remote list everyone else, under a block
// synthetic layout.
func TestTopologyVictimLists(t *testing.T) {
	s := New(4, WithSeed(1), WithTopology(topology.Synthetic(2, 2)))
	if s.Topology().Nodes() != 2 {
		t.Fatalf("Topology().Nodes() = %d, want 2", s.Topology().Nodes())
	}
	wantNode := []int{0, 0, 1, 1}
	for i, w := range s.workers {
		if w.node != wantNode[i] {
			t.Fatalf("worker %d on node %d, want %d", i, w.node, wantNode[i])
		}
	}
	w0 := s.workers[0]
	if len(w0.localVictims) != 1 || w0.localVictims[0] != s.workers[1] {
		t.Fatalf("worker 0 localVictims = %v", ids(w0.localVictims))
	}
	if len(w0.remoteVictims) != 2 || w0.remoteVictims[0] != s.workers[2] || w0.remoteVictims[1] != s.workers[3] {
		t.Fatalf("worker 0 remoteVictims = %v", ids(w0.remoteVictims))
	}
	w2 := s.workers[2]
	if len(w2.localVictims) != 1 || w2.localVictims[0] != s.workers[3] {
		t.Fatalf("worker 2 localVictims = %v", ids(w2.localVictims))
	}
	// A flat topology has no remote victims at all.
	f := New(4, WithSeed(1), WithTopology(topology.Flat(4)))
	for _, w := range f.workers {
		if len(w.remoteVictims) != 0 || len(w.localVictims) != 3 {
			t.Fatalf("flat worker %d victim lists: local=%d remote=%d", w.id, len(w.localVictims), len(w.remoteVictims))
		}
	}
}

func ids(ws []*worker) []int {
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = w.id
	}
	return out
}

// TestChaseLevStealOrderPrefersLocal drives findWork by hand (the
// scheduler is never started, so the call is single-threaded and
// deterministic): with work available on both the local and a remote
// victim, the local one must be robbed first — and with only the
// remote one loaded, the fallback phase must still find it.
func TestChaseLevStealOrderPrefersLocal(t *testing.T) {
	// Slots 0,1 → node 0; slot 2 → node 1.
	topo := topology.Synthetic(2, 2)
	d := spdag.New(counter.FetchAdd{})
	mk := func() *spdag.Vertex { return d.NewVertex(nil, nil, 0) }

	s := New(3, WithSeed(7), WithTopology(topo))
	w0, w1, w2 := s.workers[0], s.workers[1], s.workers[2]
	local, remote := mk(), mk()
	w1.dq.PushBottom(local)
	w2.dq.PushBottom(remote)
	if got := w0.findWork(); got != local {
		t.Fatalf("findWork stole %p, want the local victim's vertex %p", got, local)
	}
	if l, r := w0.stats.localSteals.Load(), w0.stats.remoteSteals.Load(); l != 1 || r != 0 {
		t.Fatalf("local/remote steal counts = %d/%d, want 1/0", l, r)
	}
	// Local node dry: the remote round must still drain the work.
	if got := w0.findWork(); got != remote {
		t.Fatalf("findWork stole %p, want the remote victim's vertex %p", got, remote)
	}
	if l, r := w0.stats.localSteals.Load(), w0.stats.remoteSteals.Load(); l != 1 || r != 1 {
		t.Fatalf("local/remote steal counts = %d/%d, want 1/1", l, r)
	}
	if st := s.Stats(); st.Steals != 2 || st.LocalSteals != 1 || st.RemoteSteals != 1 {
		t.Fatalf("Stats = %+v, want 2 steals split 1/1", st)
	}
}

// TestTopologyRemoteFallbackDrains runs a real computation on a
// topology where every worker is alone on its node — every steal is
// forced through the remote phase — under a watchdog: the locality
// preference must never strand work.
func TestTopologyRemoteFallbackDrains(t *testing.T) {
	requireParallelism(t)
	t.Run("chase-lev", func(t *testing.T) {
		s := New(2, WithSeed(3), WithTopology(topology.Synthetic(2, 1)))
		s.Start()
		defer s.Shutdown()
		d := spdag.New(counter.Dynamic{Threshold: 1}, spdag.WithScheduler(s.Submit))
		done := make(chan int64, 1)
		go func() {
			var leaves atomic.Int64
			s.Run(d, func(u *spdag.Vertex) { spawnTree(u, 13, &leaves) })
			done <- leaves.Load()
		}()
		select {
		case leaves := <-done:
			if leaves != 1<<13 {
				t.Fatalf("%d leaves, want %d (work stranded by the victim order)", leaves, 1<<13)
			}
		case <-time.After(2 * time.Minute):
			t.Fatal("hang: remote fallback failed to drain work")
		}
		st := s.Stats()
		if st.LocalSteals != 0 {
			t.Fatalf("LocalSteals = %d on a topology with no same-node victims", st.LocalSteals)
		}
		if st.Steals != st.RemoteSteals {
			t.Fatalf("Steals = %d, RemoteSteals = %d: split does not add up", st.Steals, st.RemoteSteals)
		}
		if st.Steals == 0 {
			t.Fatal("no steals on a 2-worker run of a large tree")
		}
	})
}

// TestTopologyLocalStealsEndToEnd: on a 2×2 synthetic topology with
// same-node peers available, the local counter must move and the split
// must account for every steal. (The strict preference ordering is
// pinned deterministically above; this checks the wiring end to end
// under real concurrency.) Whether one run steals at all is up to the
// host's interleaving, so the test is driven by work volume: it keeps
// submitting trees until a local steal lands, under a generous
// deadline.
func TestTopologyLocalStealsEndToEnd(t *testing.T) {
	requireParallelism(t)
	t.Run("chase-lev", func(t *testing.T) {
		s := New(4, WithSeed(11), WithTopology(topology.Synthetic(2, 2)))
		s.Start()
		defer s.Shutdown()
		d := spdag.New(counter.Dynamic{Threshold: 1}, spdag.WithScheduler(s.Submit))
		waitCond(t, time.Minute, "a local steal", func() bool {
			var leaves atomic.Int64
			s.Run(d, func(u *spdag.Vertex) { spawnTree(u, 14, &leaves) })
			if leaves.Load() != 1<<14 {
				t.Fatalf("%d leaves, want %d", leaves.Load(), 1<<14)
			}
			return s.Stats().LocalSteals > 0
		})
		if st := s.Stats(); st.Steals != st.LocalSteals+st.RemoteSteals {
			t.Fatalf("Stats split broken: %+v", st)
		}
	})
}

// TestElasticSpawnPicksLeastLoadedNode drives trySpawn directly: with
// the floor worker on node 0, the first elastic spawn must claim a
// node-1 slot (the empty node), and the next one the remaining node-0
// slot.
func TestElasticSpawnPicksLeastLoadedNode(t *testing.T) {
	s := New(1, WithSeed(5), WithMaxWorkers(4), WithTopology(topology.Synthetic(2, 2)))
	s.Start()
	defer s.Shutdown()

	s.trySpawn()
	if !s.workers[2].live() && !s.workers[3].live() {
		t.Fatalf("first spawn stayed on node 0 (states: %v), want a node-1 slot", states(s))
	}
	if s.workers[1].live() {
		t.Fatalf("first spawn claimed slot 1 on the loaded node 0 (states: %v)", states(s))
	}
	s.trySpawn()
	if !s.workers[1].live() {
		t.Fatalf("second spawn skipped the node-0 slot (states: %v)", states(s))
	}
	if s.NumWorkers() != 3 {
		t.Fatalf("NumWorkers = %d, want 3", s.NumWorkers())
	}
}

func states(s *Scheduler) []int32 {
	out := make([]int32, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.state.Load()
	}
	return out
}

// TestTopologyElasticChurnFreelists is the park/retire churn run for
// the per-node freelists: bursts on a 2-node elastic pool with a
// retirement threshold shorter than the idle gaps force workers to
// retire (draining their freelists into their node's pool) and respawn
// (drawing from it) every round. A vertex leaked across retirement —
// drained to the wrong place, or lost — shows up as a wrong shadow
// leaf count or a hang; the accounting must balance (spawned ==
// retired) once the pool quiesces to the floor.
func TestTopologyElasticChurnFreelists(t *testing.T) {
	requireParallelism(t)
	t.Run("chase-lev", func(t *testing.T) {
		rounds := 40
		if testing.Short() {
			rounds = 8
		}
		const (
			min   = 1
			max   = 4
			lanes = 4
			depth = 6
		)
		s := New(min, WithSeed(41), WithMaxWorkers(max),
			WithRetireAfter(time.Millisecond), WithTopology(topology.Synthetic(2, 2)))
		d := spdag.New(counter.Dynamic{Threshold: 2}, spdag.WithScheduler(s.Submit))
		s.Start()
		defer s.Shutdown()

		errc := make(chan error, 1)
		go func() {
			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				var leaves atomic.Int64
				for lane := 0; lane < lanes; lane++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						s.Run(d, func(u *spdag.Vertex) { spawnTree(u, depth, &leaves) })
					}()
				}
				wg.Wait()
				if got, want := leaves.Load(), int64(lanes<<depth); got != want {
					errc <- fmt.Errorf("round %d: %d leaves, want %d (lost vertices)", round, got, want)
					return
				}
				time.Sleep(3 * time.Millisecond) // outlast RetireAfter: force churn
			}
			errc <- nil
		}()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("hang during topology churn (live=%d parked=%d spawned=%d retired=%d)",
				s.NumWorkers(), s.ParkedWorkers(), s.SpawnedWorkers(), s.RetiredWorkers())
		}
		waitCond(t, 10*time.Second, "pool quiesced to the floor", func() bool {
			return s.NumWorkers() == min && s.ParkedWorkers() == min &&
				s.RetiredWorkers() == s.SpawnedWorkers()
		})
	})
}
