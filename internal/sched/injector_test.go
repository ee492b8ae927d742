package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/spdag"
)

// TestInjectorFIFO: single producer, single consumer, order preserved.
func TestInjectorFIFO(t *testing.T) {
	var q injector
	q.init()
	vs := make([]*spdag.Vertex, 100)
	d := spdag.New(counter.FetchAdd{})
	for i := range vs {
		vs[i] = d.NewVertex(nil, nil, 0)
		q.push(vs[i])
	}
	for i := range vs {
		v := q.pop()
		if v != vs[i] {
			t.Fatalf("pop %d: got %p, want %p (FIFO violated)", i, v, vs[i])
		}
		if v.InjNext() != nil {
			t.Fatalf("pop %d: injection link not cleared (retention)", i)
		}
	}
	if v := q.pop(); v != nil {
		t.Fatalf("pop on empty queue returned %p", v)
	}
	if q.size.Load() != 0 {
		t.Fatalf("size = %d after draining, want 0", q.size.Load())
	}
}

// TestInjectorConcurrent hammers the queue from many producers and
// consumers at once (run under -race): every pushed vertex must be
// popped exactly once.
func TestInjectorConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var q injector
	q.init()
	const producers = 8
	const perProducer = 5000
	total := int64(producers * perProducer)
	d := spdag.New(counter.FetchAdd{})

	var popped atomic.Int64
	var stopConsumers atomic.Bool
	var consumers sync.WaitGroup
	seen := make([]atomic.Bool, producers*perProducer)
	for c := 0; c < 4; c++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for !stopConsumers.Load() {
				v := q.pop()
				if v == nil {
					runtime.Gosched()
					continue
				}
				id := v.Payload().(int)
				if seen[id].Swap(true) {
					t.Errorf("vertex %d popped twice", id)
				}
				popped.Add(1)
			}
		}()
	}

	var producersWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		producersWG.Add(1)
		go func(p int) {
			defer producersWG.Done()
			for k := 0; k < perProducer; k++ {
				v := d.NewVertex(nil, nil, 0)
				v.SetPayload(p*perProducer + k)
				q.push(v)
			}
		}(p)
	}
	producersWG.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for popped.Load() < total {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d vertices popped", popped.Load(), total)
		}
		runtime.Gosched()
	}
	stopConsumers.Store(true)
	consumers.Wait()
	if q.size.Load() != 0 {
		t.Fatalf("size = %d after draining, want 0", q.size.Load())
	}
}

// TestSubmitStress drives the full path — concurrent Submits through
// the MPSC injector into parked-and-woken workers — and checks every
// vertex executes (run under -race). This is the regression test for
// the lost-wake-up race: a Submit landing exactly as workers park must
// still be executed.
func TestSubmitStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	t.Run("chase-lev", func(t *testing.T) {
		s := New(3, WithSeed(11))
		d := spdag.New(counter.FetchAdd{}, spdag.WithScheduler(s.Submit))
		s.Start()
		defer s.Shutdown()

		const producers = 6
		const perProducer = 3000
		var executed atomic.Int64
		body := func(*spdag.Vertex) { executed.Add(1) }
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < perProducer; k++ {
					v := d.NewVertex(nil, nil, 0)
					v.SetBody(body)
					if !v.TrySchedule() {
						t.Error("fresh ready vertex failed to schedule")
						return
					}
					if k%512 == 0 {
						// Give workers a chance to drain and park, so
						// Submits keep racing the parking protocol.
						time.Sleep(time.Millisecond)
					}
				}
			}()
		}
		wg.Wait()

		deadline := time.Now().Add(20 * time.Second)
		want := int64(producers * perProducer)
		for executed.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("executed %d of %d submitted vertices (lost work)", executed.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
