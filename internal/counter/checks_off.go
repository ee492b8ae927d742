//go:build !nestedchecks

package counter

// checks gates the reuse poison; see checks_on.go.
const checks = false
