package main

import (
	"math"
	"testing"
)

func TestSelfTimesWithNestedAndOverlappingChildren(t *testing.T) {
	ms := int64(1e6)
	spans := []Span{
		{ID: 1, Name: "core.op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "count.Trees", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "count.Trees", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 2, Name: "sched.run", Start: 15 * ms, End: 20 * ms},
		{ID: 5, Parent: 1, Name: "shard.call", Start: 90 * ms, End: 120 * ms}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 0.040, 2: 0.025, 3: 0.030, 4: 0.005, 5: 0.030}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	layers := layerSelfSeconds(spans)
	if math.Abs(layers["count"]-0.055) > 1e-12 || math.Abs(layers["core"]-0.040) > 1e-12 {
		t.Errorf("layer self times %v", layers)
	}
	if got := rootSeconds(spans); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("rootSeconds = %v", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(0, "core.op", "0")
	tr.Finish(id)
	if id != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = NewTracer()
	root := tr.Begin(0, "core.op", "0")
	child := tr.Begin(root, "count.Trees", "0")
	tr.Finish(child)
	tr.Finish(root)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Layer() != "count" || s[0].End < s[1].End {
		t.Fatalf("spans %+v", s)
	}
}
