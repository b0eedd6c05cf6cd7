package main

import (
	"math"
	"testing"
	"time"
)

// Each slice's latencies are scaled by the nominal reference time over
// that slice's median reference time; a slice without reference runs
// uses the whole window's median.
func TestReferenceScaling(t *testing.T) {
	window := 5 * time.Second
	refs := newRefClock(window, nil)
	nom := refNominalMS[refSeq][refP50]
	// Slice 0 runs at the nominal speed, slice 1 at half of it, slice 2
	// has no reference runs; the other slices have only slow runs.
	refs.ms[refSeq][0] = []float64{nom, nom * 0.9, nom * 1.1}
	refs.ms[refSeq][1] = []float64{2 * nom, 2 * nom, 5 * nom}
	refs.ms[refSeq][3] = []float64{2 * nom}
	refs.ms[refSeq][4] = []float64{2 * nom}
	f := refs.factors(refSeq, refP50)
	want := [slices]float64{1, 0.5, 0.5, 0.5, 0.5}
	for k := range want {
		if math.Abs(f[k]-want[k]) > 1e-12 {
			t.Errorf("factor of slice %d = %v, want %v", k, f[k], want[k])
		}
	}

	// The p90 factor divides by the p90 of each slice's runs.
	if g := refs.factors(refSeq, refP90); math.Abs(g[1]-refNominalMS[refSeq][refP90]/(4.4*nom)) > 1e-12 {
		t.Errorf("p90 factor of slice 1 = %v, want %v", g[1], refNominalMS[refSeq][refP90]/(4.4*nom))
	}

	c := newClass(ClassDef{LimitMS: 100, TailPct: 90}, refSeq, window)
	c.add(0, 10, nil)
	c.add(1500*time.Millisecond, 20, nil)
	s := c.scaled(refs, refP50)
	if len(s[0]) != 1 || s[0][0] != 10 || len(s[1]) != 1 || s[1][0] != 10 {
		t.Errorf("scaled latencies %v, want 10 ms in slices 0 and 1", s)
	}
	if got := c.perSecond(refs); math.Abs(got-100) > 1e-9 {
		t.Errorf("perSecond = %v, want 100 (two slices of one 10 ms op)", got)
	}
}

// The reference does a fixed amount of work: its result does not depend
// on when it runs or on the slice it is recorded in.
func TestReferenceRunRecordsBySlice(t *testing.T) {
	refs := newRefClock(time.Second, nil)
	refs.run(refSeq, 0)
	refs.run(refPar, 900*time.Millisecond)
	if len(refs.ms[refSeq][0]) != 1 || len(refs.ms[refPar][slices-1]) != 1 {
		t.Fatalf("reference runs not recorded in their slices: %v", refs.ms)
	}
	if refChunk(42) != refChunk(42) {
		t.Fatal("refChunk is not a pure function of its seed")
	}
}
