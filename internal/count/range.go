package count

import (
	"pqe/internal/efloat"
	"pqe/internal/nfta"
)

// ResolveSchedule reports the resolved trial schedule of a Trees call
// with these options: the defaulted (epsilon, trials, samples) triple.
// A shard coordinator ships the resolved values to its workers so every
// process runs the exact schedule the local call would, regardless of
// which side applied the defaults.
func (o Options) ResolveSchedule() (epsilon float64, trials, samples int) {
	d := o.withDefaults()
	return d.Epsilon, d.Trials, d.Samples
}

// TreesRange executes trials [lo, hi) of the fixed Trials schedule and
// returns their estimates in trial order. Trial t's seed is the t-th
// draw of the options' PRNG — exactly the seed Trees would hand the
// same trial — so the returned estimates are bit-identical to the
// corresponding slice of a local Trees call, no matter how the full
// range is partitioned across calls or processes. The caller (the
// shard coordinator, via internal/core) owns the median merge and the
// anytime batch boundaries.
func TreesRange(a *nfta.NFTA, n int, opts Options, lo, hi int) ([]efloat.E, error) {
	opts = opts.withDefaults()
	c := begin(a, n, opts, "count.trees_range")
	if c.span != nil {
		c.span.SetAttr("trial_lo", lo)
		c.span.SetAttr("trial_hi", hi)
	}
	ests, err := c.driver.Range(&c.local, lo, hi)
	c.end()
	return ests, err
}
