package nfa

import "pqe/internal/efloat"

// ResolveSchedule reports the resolved trial schedule of a Count call
// with these options: the defaulted (epsilon, trials, samples) triple.
// A shard coordinator ships the resolved values to its workers so every
// process runs the exact schedule the local call would, regardless of
// which side applied the defaults.
func (o CountOptions) ResolveSchedule() (epsilon float64, trials, samples int) {
	d := o.withDefaults()
	return d.Epsilon, d.Trials, d.Samples
}

// CountRange executes trials [lo, hi) of the fixed Trials schedule and
// returns their estimates in trial order. Trial t's seed is the t-th
// draw of the options' PRNG — exactly the seed Count would hand the
// same trial — so the returned estimates are bit-identical to the
// corresponding slice of a local Count call, no matter how the full
// range is partitioned across calls or processes. The caller (the
// shard coordinator, via internal/core) owns the median merge and the
// anytime batch boundaries.
func CountRange(m *NFA, n int, opts CountOptions, lo, hi int) ([]efloat.E, error) {
	opts = opts.withDefaults()
	c := begin(m, n, opts, "count.nfa_range")
	if c.span != nil {
		c.span.SetAttr("trial_lo", lo)
		c.span.SetAttr("trial_hi", hi)
	}
	ests, err := c.driver.Range(&c.local, lo, hi)
	c.end()
	return ests, err
}
