//go:build !nestedchecks

package gateway

const nestedChecks = false
