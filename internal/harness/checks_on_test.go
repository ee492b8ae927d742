//go:build nestedchecks

package harness

// nestedChecks reports whether this test binary was built with
// -tags nestedchecks, which turns off Ctx pooling in internal/nested:
// every async then allocates its Ctx, so alloc-budget tests skip
// themselves under it.
const nestedChecks = true
