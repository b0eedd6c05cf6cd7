package main

import (
	"math"
	"strings"
	"testing"
)

const scrapeBefore = `# HELP pqed_phase_seconds Per-request time by phase (queue, build, sample, serialize).
# TYPE pqed_phase_seconds histogram
pqed_phase_seconds_bucket{outcome="200",phase="queue",route="estimate",le="+Inf"} 3
pqed_phase_seconds_sum{outcome="200",phase="build",route="delta"} 1.0293e-05
pqed_phase_seconds_sum{outcome="200",phase="queue",route="delta"} 0.5
pqed_phase_seconds_sum{outcome="200",phase="queue",route="estimate"} 0.25
pqed_phase_seconds_count{outcome="200",phase="queue",route="estimate"} 3
pqed_session_hits_total 4
countnfta_wall_ns_total 1000
`

const scrapeAfter = `pqed_phase_seconds_bucket{outcome="200",phase="queue",route="estimate",le="+Inf"} 9
pqed_phase_seconds_sum{outcome="200",phase="build",route="delta"} 2.0293e-05
pqed_phase_seconds_sum{outcome="200",phase="queue",route="delta"} 1.5
pqed_phase_seconds_sum{outcome="200",phase="queue",route="estimate"} 1.25
pqed_phase_seconds_sum{outcome="429",phase="queue",route="estimate"} 2
pqed_phase_seconds_count{outcome="200",phase="queue",route="estimate"} 9
pqed_session_hits_total 10
countnfta_wall_ns_total 5000
countnfta_accept_checks_total 77
garbage line without value
`

func TestScrapeDeltas(t *testing.T) {
	before, err := parseScrape(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.Delta(before)
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("queue, all routes", d.phaseSeconds("queue", ""), 1+1+2)
	check("queue, delta", d.phaseSeconds("queue", "delta"), 1)
	check("build, delta", d.phaseSeconds("build", "delta"), 1e-05)
	check("sample (absent)", d.phaseSeconds("sample", ""), 0)
	check("session hits", d.Sum("pqed_session_hits_total"), 6)
	check("engine wall", d.Sum("countnfta_wall_ns_total"), 4000)
	check("counter new since before", d.Sum("countnfta_accept_checks_total"), 77)
	check("bucket with le label", d.Sum("pqed_phase_seconds_bucket", `le="+Inf"`), 6)
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tpqed\nVmPeak:\t  812000 kB\nVmHWM:\t   24576 kB\nVmRSS:\t   20000 kB\n"
	if got := parseVmHWM(strings.NewReader(status)); got != 24 {
		t.Fatalf("VmHWM = %v MB, want 24", got)
	}
}
