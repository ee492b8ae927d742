package nested

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestElasticChurn cycles burst → idle → burst with the retirement
// threshold inside the idle gaps, so every round shrinks the pool the
// next round regrows. The shadow live-count (executed leaf tasks per
// round) catches lost vertices; the timeout catches lost wake-ups; the
// final poll asserts the pool lands back on its floor with balanced
// spawn/retire accounting.
func TestElasticChurn(t *testing.T) {
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	const (
		lanes  = 4
		leaves = 256
	)
	r := New(Config{Workers: 1, MaxWorkers: 4, RetireAfter: time.Millisecond, Seed: 3})
	defer r.Close()
	sc := r.Scheduler()

	errc := make(chan error, 1)
	go func() {
		for round := 0; round < rounds; round++ {
			var executed atomic.Int64
			var wg sync.WaitGroup
			for lane := 0; lane < lanes; lane++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					err := r.Run(func(c *Ctx) {
						c.ParallelFor(0, leaves, 1, func(int) { executed.Add(1) })
					})
					if err != nil {
						select {
						case errc <- fmt.Errorf("round %d: %v", round, err):
						default:
						}
					}
				}()
			}
			wg.Wait()
			if got := executed.Load(); got != lanes*leaves {
				errc <- fmt.Errorf("round %d: %d leaf tasks ran, want %d (lost vertices)", round, got, lanes*leaves)
				return
			}
			time.Sleep(3 * time.Millisecond) // outlast the retirement threshold
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("hang during retire/respawn churn: workers=%d spawned=%d retired=%d",
			r.Workers(), sc.SpawnedWorkers(), sc.RetiredWorkers())
	}

	deadline := time.Now().Add(10 * time.Second)
	for r.Workers() != 1 || sc.RetiredWorkers() != sc.SpawnedWorkers() {
		if time.Now().After(deadline) {
			t.Fatalf("pool did not return to the floor after churn: workers=%d spawned=%d retired=%d",
				r.Workers(), sc.SpawnedWorkers(), sc.RetiredWorkers())
		}
		time.Sleep(time.Millisecond)
	}
}
