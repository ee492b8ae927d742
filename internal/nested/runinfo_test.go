package nested

import (
	"context"
	"testing"
)

// TestRunContextInfo: ids increase, timing is ordered, and a real
// computation attributes non-zero work.
func TestRunContextInfo(t *testing.T) {
	r := New(Config{Workers: 2})
	defer r.Close()
	var last uint64
	for i := 0; i < 3; i++ {
		info, err := r.RunContextInfo(context.Background(), func(c *Ctx) {
			c.ParallelFor(0, 1024, 16, func(int) {})
		})
		if err != nil {
			t.Fatal(err)
		}
		if info.ID <= last {
			t.Fatalf("run id %d not increasing past %d", info.ID, last)
		}
		last = info.ID
		if info.End.Before(info.Start) {
			t.Fatal("run ended before it started")
		}
		if info.Vertices <= 0 || info.Executed == 0 {
			t.Fatalf("no work attributed: vertices=%d executed=%d", info.Vertices, info.Executed)
		}
	}
}
