package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a module, recorded
// in memory and written out when the run ends.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`   // "<layer>.<call>", e.g. "count.Trees"
	Op     string `json:"op"`     // op or request ID the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer is the module a span's time is attributed to: the part of its
// name before the first dot.
func (s Span) Layer() string {
	for i := 0; i < len(s.Name); i++ {
		if s.Name[i] == '.' {
			return s.Name[:i]
		}
	}
	return s.Name
}

// Tracer records spans relative to its creation time. A nil *Tracer
// records nothing, so untraced runs pay one pointer test per call.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its ID (0 when t is nil).
func (t *Tracer) Begin(parent int, name, op string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now})
	return len(t.spans)
}

// Finish closes span id.
func (t *Tracer) Finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records an already measured span (a client request joined to
// the server's record, say) and returns its ID.
func (t *Tracer) Add(parent int, name, op string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in seconds: its duration
// minus the part of its interval covered by its direct children
// (overlapping children count once).
func selfTimes(spans []Span) map[int]float64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		covered := coveredNs(s, children[s.ID])
		out[s.ID] = float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelfSeconds sums span self times by layer.
func layerSelfSeconds(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer()] += self[s.ID]
	}
	return out
}

// nameSelfSeconds sums span self times by full span name.
func nameSelfSeconds(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// rootSeconds is the summed duration of the root spans: the traced
// end-to-end time the layer self times must account for.
func rootSeconds(spans []Span) float64 {
	t := 0.0
	for _, s := range spans {
		if s.Parent == 0 {
			t += float64(s.End-s.Start) / 1e9
		}
	}
	return t
}
