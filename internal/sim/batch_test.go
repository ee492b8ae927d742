package sim_test

// Tests for the simulator's batched-frontend model (Config.Batch):
//
//   - Batch 0 and Batch 1 are byte-identical to each other and differ
//     from the unbatched simulator in nothing — the exact golden files
//     (internal/harness/testdata/simcells.golden) stay valid with the
//     field at its zero value.
//   - Batch ≥ 2 is deterministic: equal Configs give equal traces and
//     equal Results.
//   - Batching is accounting-only: every pre-batch Result field (the
//     timeline, steals, promotions, elastic stats) is unchanged at any
//     Batch; only the four counter-model outcome fields move.
//   - The touch ledger conserves: every executed vertex's touch either
//     registers on the shared counter or is buffered worker-locally,
//     and registered touches bound the buffered ones by the batch
//     factor.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func batchCfg(batch uint64, trace *bytes.Buffer) sim.Config {
	cfg := sim.Config{
		Workers:           64,
		Seed:              11,
		Topo:              topology.Flat(64),
		PromoteContention: 1,
		Batch:             batch,
		Arrivals: []sim.Arrival{
			{Tick: 0, Depth: 9},
			{Tick: 0, Depth: 8},
			{Tick: 3, Depth: 9},
		},
	}
	if trace != nil {
		cfg.Trace = trace
	}
	return cfg
}

// stripBatchFields zeroes the four batched-frontend outcome fields so
// the rest of the Result can be compared across batch settings.
func stripBatchFields(r sim.Result) sim.Result {
	r.CounterRMWs = 0
	r.LocalIncs = 0
	r.MaxColliders = 0
	r.CounterMisses = 0
	return r
}

func TestBatchZeroAndOneIdentical(t *testing.T) {
	var t0, t1 bytes.Buffer
	r0, err := sim.Run(batchCfg(0, &t0))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sim.Run(batchCfg(1, &t1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t0.Bytes(), t1.Bytes()) {
		t.Fatal("Batch 0 and Batch 1 traces differ")
	}
	if !reflect.DeepEqual(r0, r1) {
		t.Fatalf("Batch 0 and Batch 1 results differ:\n%+v\n%+v", r0, r1)
	}
	if r0.LocalIncs != 0 {
		t.Fatalf("unbatched run buffered %d touches locally, want 0", r0.LocalIncs)
	}
	// With no buffering, every executed vertex registers exactly one
	// shared-counter touch.
	if r0.CounterRMWs != r0.Executed {
		t.Fatalf("unbatched CounterRMWs = %d, want Executed = %d", r0.CounterRMWs, r0.Executed)
	}
}

func TestBatchDeterministic(t *testing.T) {
	var ta, tb bytes.Buffer
	ra, err := sim.Run(batchCfg(8, &ta))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sim.Run(batchCfg(8, &tb))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatal("equal Configs with Batch=8 produced different traces")
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("equal Configs with Batch=8 produced different results:\n%+v\n%+v", ra, rb)
	}
}

func TestBatchAccountingOnly(t *testing.T) {
	base, err := sim.Run(batchCfg(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []uint64{2, 8, 64} {
		r, err := sim.Run(batchCfg(b, nil))
		if err != nil {
			t.Fatal(err)
		}
		// The batch tier is a counter-model overlay: scheduling, the
		// timeline, promotions, and the elastic stats must not move.
		if !reflect.DeepEqual(stripBatchFields(base), stripBatchFields(r)) {
			t.Fatalf("Batch=%d perturbed a pre-batch field:\nbase %+v\ngot  %+v",
				b, stripBatchFields(base), stripBatchFields(r))
		}

		// Touch conservation. Every executed touch is either registered
		// directly (pre-promotion) or buffered (LocalIncs); buffered
		// touches reach the shared counter only via Batch-th-touch or
		// idle-boundary flushes, so:
		//   - registered touches never exceed the unbatched count,
		//   - the pre-promotion share (Executed − LocalIncs) always
		//     registers, and
		//   - each registered flush covers at most Batch buffered
		//     touches, bounding how far the RMW count can fall.
		if r.LocalIncs == 0 {
			t.Fatalf("Batch=%d buffered no touches (did promotion never fire?)", b)
		}
		if r.CounterRMWs > base.CounterRMWs {
			t.Fatalf("Batch=%d registered %d touches, more than unbatched %d",
				b, r.CounterRMWs, base.CounterRMWs)
		}
		direct := r.Executed - r.LocalIncs
		if r.CounterRMWs < direct {
			t.Fatalf("Batch=%d CounterRMWs = %d < pre-promotion touches %d",
				b, r.CounterRMWs, direct)
		}
		if flushed := r.CounterRMWs - direct; flushed*b < r.LocalIncs {
			t.Fatalf("Batch=%d: %d flushes × batch cannot cover %d buffered touches",
				b, flushed, r.LocalIncs)
		}
		if r.CounterMisses > base.CounterMisses {
			t.Fatalf("Batch=%d modeled misses %d exceed unbatched %d",
				b, r.CounterMisses, base.CounterMisses)
		}
	}
}
