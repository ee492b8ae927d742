//go:build !nestedchecks

package harness

const nestedChecks = false
