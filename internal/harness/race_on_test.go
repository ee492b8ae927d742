//go:build race

package harness

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation changes allocation behaviour;
// alloc-budget tests skip themselves under it.
const raceEnabled = true
