package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for a *_tail_ms metric, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90}

// tailPercentile returns the highest of p99.9, p99 and p90 that leaves
// at least ten samples beyond it out of n, or 0 when even p90 does not.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by
// linear interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relErr is |est − exact| / exact (|est| when exact is 0).
func relErr(est, exact float64) float64 {
	if exact == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-exact) / math.Abs(exact)
}
