package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
)

// tree is a binary fan-in over n leaves: n-1 Asyncs, each of which
// creates two vertices, so one Run of it creates 2 + 2(n-1) = 2n
// vertices counting its root and final.
func tree(c *repro.Ctx, n int) {
	if n < 2 {
		return
	}
	c.Async(func(c *repro.Ctx) { tree(c, n/2) })
	tree(c, n-n/2)
}

// TestStatsVerticesExactUnderConcurrentReads pins the contract of
// Stats.Vertices now that the count lives on per-worker words: while
// concurrent Runs are in flight a poller's readings never decrease,
// and once they have returned the count is exact. The elastic variant
// lets the pool spawn, retire back to its floor, and spawn again, so
// the words of retired and respawned slots are part of the total.
func TestStatsVerticesExactUnderConcurrentReads(t *testing.T) {
	const (
		leaves = 256
		runs   = 40
	)
	for _, tc := range []struct {
		name   string
		opts   []repro.Option
		lanes  int
		rounds int
	}{
		{"fixed", []repro.Option{repro.WithWorkers(2)}, 2, 1},
		{"elastic", []repro.Option{repro.WithWorkers(2), repro.WithMaxWorkers(6)}, 12, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := repro.NewRuntime(append(tc.opts, repro.WithSeed(5))...)
			defer rt.Close()
			v0 := rt.Stats().Vertices

			stop := make(chan struct{})
			polled := make(chan error, 1)
			go func() {
				last := v0
				for {
					select {
					case <-stop:
						polled <- nil
						return
					default:
					}
					v := rt.Stats().Vertices
					if v < last {
						polled <- fmt.Errorf("Stats.Vertices went from %d down to %d", last, v)
						return
					}
					last = v
					runtime.Gosched()
				}
			}()

			total := 0
			for round := 0; round < tc.rounds; round++ {
				if round > 0 {
					waitFloor(t, rt)
				}
				var wg sync.WaitGroup
				errs := make([]error, tc.lanes)
				for lane := range tc.lanes {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for range runs {
							if err := rt.Run(func(c *repro.Ctx) { tree(c, leaves) }); err != nil {
								errs[lane] = err
								return
							}
						}
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				total += tc.lanes * runs
			}
			close(stop)
			if err := <-polled; err != nil {
				t.Fatal(err)
			}
			st := rt.Stats()
			if got, want := st.Vertices-v0, int64(total*2*leaves); got != want {
				t.Fatalf("Stats.Vertices grew by %d over %d runs, want %d", got, total, want)
			}
			if tc.rounds > 1 && st.RetiredWorkers == 0 {
				t.Fatalf("the pool never retired a worker between rounds: %+v", st)
			}
		})
	}
}

// waitFloor waits until an elastic runtime has retired every worker it
// spawned, so the next round's spawns reuse retired slots.
func waitFloor(t *testing.T, rt *repro.Runtime) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := rt.Stats()
		if st.SpawnedWorkers > 0 && st.RetiredWorkers == st.SpawnedWorkers {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("runtime did not retire its spawned workers: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}
