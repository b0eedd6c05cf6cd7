package main

import (
	"reflect"
	"testing"
	"time"
)

func TestTemplateSequenceIsPureFunctionOfSeed(t *testing.T) {
	w := []float64{0.5, 0.3, 0.2}
	a := templateSequence(7, 1000, w)
	if b := templateSequence(7, 1000, w); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sequences")
	}
	if c := templateSequence(8, 1000, w); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same sequence")
	}
	counts := make([]int, len(w))
	for _, k := range a {
		counts[k]++
	}
	if !reflect.DeepEqual(counts, []int{500, 300, 200}) {
		t.Fatalf("template counts %v, want [500 300 200]", counts)
	}
}

func TestApportion(t *testing.T) {
	counts := map[int]int{}
	for _, k := range apportion(10, []float64{1, 1, 1}) {
		counts[k]++
	}
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("apportion(10, thirds) = %v", counts)
	}
}

// The caller sends its next request only after its previous one has
// completed, requests are numbered in the order they are sent, and no
// request starts after the window.
func TestCallerIsClosedLoop(t *testing.T) {
	const service = 20 * time.Millisecond
	var ids []int
	outs := runCaller(150*time.Millisecond, func(idx int) {
		ids = append(ids, idx)
		time.Sleep(service)
	}, nil)
	if len(outs) < 4 || len(outs) > 8 {
		t.Fatalf("%d requests in a 150ms window of one 20ms caller", len(outs))
	}
	for i, o := range outs {
		if ids[i] != i {
			t.Errorf("request %d was numbered %d", i, ids[i])
		}
		if o.Sent >= 150*time.Millisecond || o.Latency() < service {
			t.Errorf("request %d: sent %v, latency %v", i, o.Sent, o.Latency())
		}
		if i > 0 && o.Sent < outs[i-1].Done {
			t.Errorf("request %d sent at %v before request %d completed at %v", i, o.Sent, i-1, outs[i-1].Done)
		}
	}
}
