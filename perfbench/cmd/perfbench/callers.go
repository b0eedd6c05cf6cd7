package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// templateSequence returns n template indices in seeded random order,
// template k appearing in proportion to weights[k]. It is a pure
// function of its arguments.
func templateSequence(seed int64, n int, weights []float64) []int {
	seq := apportion(n, weights)
	rand.New(rand.NewSource(seed)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// apportion returns n template indices, template k appearing in
// proportion to weights[k] (largest-remainder rounding).
func apportion(n int, weights []float64) []int {
	total := sum(weights)
	counts := make([]int, len(weights))
	type rem struct {
		k int
		r float64
	}
	rems := make([]rem, len(weights))
	left := n
	for k, w := range weights {
		exact := float64(n) * w / total
		counts[k] = int(math.Floor(exact))
		left -= counts[k]
		rems[k] = rem{k, exact - float64(counts[k])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].r > rems[j].r })
	for i := 0; i < left; i++ {
		counts[rems[i].k]++
	}
	out := make([]int, 0, n)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, k)
		}
	}
	return out
}

// Outcome is the client-side timing of one request: when a caller sent
// it and when its response completed, relative to the window start.
type Outcome struct {
	Sent, Done time.Duration
}

// Latency is the request's round-trip time.
func (o Outcome) Latency() time.Duration { return o.Done - o.Sent }

// runCaller runs one caller in a closed loop: it sends request idx =
// 0, 1, 2, … as soon as the previous one has completed and between has
// run, until window has passed; the request in flight at the end
// completes. between(idx, at) runs after request idx completed, at
// offset at into the window, outside the request's timing; it may be
// nil. runCaller returns the outcomes indexed by request.
func runCaller(window time.Duration, do func(idx int), between func(idx int, at time.Duration)) []Outcome {
	var out []Outcome
	start := time.Now()
	for {
		sent := time.Since(start)
		if sent >= window {
			return out
		}
		do(len(out))
		out = append(out, Outcome{Sent: sent, Done: time.Since(start)})
		if between != nil {
			between(len(out)-1, time.Since(start))
		}
	}
}
