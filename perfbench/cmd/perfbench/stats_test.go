package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {50, 0}, {99, 0}, // p90 leaves fewer than ten beyond
		{100, 90}, {999, 90}, // p99 leaves fewer than ten beyond
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {50000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {100, 5}, {0, 1}, {90, 4.6}, {25, 2}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestRelErr(t *testing.T) {
	if got := relErr(1.013, 1); math.Abs(got-0.013) > 1e-12 {
		t.Errorf("relErr above 1: %v", got)
	}
	if got := relErr(0.09, 0.1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("relErr below: %v", got)
	}
}
