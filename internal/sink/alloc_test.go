package sink

import "testing"

// TestPublishAllocs: publishing a prebuilt record allocates nothing
// per call. The shard buffer is re-grown after each threshold flush,
// which amortizes to well under one allocation per publish.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behaviour")
	}
	s := New(NewRing(0))
	defer s.Close()
	rec := &RunRecord{ID: "r1", Tenant: "t", Template: "fanin", Status: StatusOK}
	if allocs := testing.AllocsPerRun(1024, func() { s.Publish(rec) }); allocs > 0 {
		t.Fatalf("Publish allocates %.0f objects per call, want 0", allocs)
	}
}
