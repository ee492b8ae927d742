//go:build chaostest

package counter

import "repro/internal/chaos"

// chaosPromote is the PromotionStorm seam: crossed once per increment,
// before the incrementing state's own obligation has left the cell (so
// the promoter's pin cannot be the draining unit). A firing
// force-promotes the counter right there, in the middle of whatever the
// surrounding operations are doing — the hardest shape for the
// cell→in-counter migration, because obligations already tracked by the
// cell must keep draining it while new ones route to the in-counter and
// the anchor bridges the two. A storm (Every=1 over a window) promotes
// every counter at its first increment, turning an uncontended workload
// into a wall-to-wall migration stress test.
func chaosPromote(c *adaptiveCounter) {
	if _, ok := chaos.Cross(chaos.PromotionStorm); ok {
		c.promote()
	}
}
