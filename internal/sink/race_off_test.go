//go:build !race

package sink

const raceEnabled = false
