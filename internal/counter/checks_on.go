//go:build nestedchecks

package counter

// checks turns on the reuse poison: a counter parked for reuse (Park)
// panics on every operation until Renew resets it.
const checks = true
