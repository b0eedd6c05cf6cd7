package nfa_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/gen"
	"pqe/internal/nfa"
	"pqe/internal/obs"
	"pqe/internal/reduction"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/word_golden.txt from the current engine")

const goldenPath = "testdata/word_golden.txt"

// goldenCase is one automaton of the bit-identity corpus with the
// length counted and the estimator settings used for it.
type goldenCase struct {
	name string
	m    *nfa.NFA
	n    int
	eps  float64
}

func goldenCorpus(t *testing.T) []goldenCase {
	rng := rand.New(rand.NewSource(23))
	var cs []goldenCase
	for i := 0; i < 16; i++ {
		cs = append(cs, goldenCase{fmt.Sprintf("random%02d", i), nfa.RandomNFA(rng), 2 + i%7, 0.2})
	}
	cs = append(cs, goldenCase{"ab", nfa.BuildAB(), 10, 0.15})
	// The weighted string automaton of a layered 3-path instance
	// (Section 3 construction plus the Section 5.1 multiplier gadgets).
	q := cq.PathQuery("R", 3)
	red, err := reduction.BuildPathPQE(q, gen.LayeredPathInstance(q, 2, gen.ProbRandomRational, 5))
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, goldenCase{"weighted/path3", red.Auto, red.WordSize, 0.4})
	return cs
}

func bits(e efloat.E) string { return fmt.Sprintf("%016x", math.Float64bits(e.Float())) }

// goldenLines runs the whole corpus at one MaxProcs setting and renders
// every pinned quantity as a "name value" line.
func goldenLines(t *testing.T, procs int) []string {
	var out []string
	emit := func(name, format string, args ...any) {
		out = append(out, name+" "+fmt.Sprintf(format, args...))
	}
	for _, c := range goldenCorpus(t) {
		// The tight variant's narrow ε-band with few samples keeps
		// ambiguous automata from agreeing at the floor, so the anytime
		// schedule runs several batches.
		for _, v := range []struct {
			label   string
			eps     float64
			samples int
			anytime bool
		}{
			{"count", c.eps, 0, false},
			{"count_anytime", c.eps, 0, true},
			{"count_anytime_tight", 0.03, 30, true},
		} {
			reg := obs.NewRegistry()
			opts := nfa.CountOptions{Epsilon: v.eps, Samples: v.samples, Trials: 9, Seed: 7, MaxProcs: procs,
				Anytime: v.anytime, Obs: obs.NewScope(nil, reg, nil)}
			emit(c.name+"/"+v.label, "%s", bits(nfa.Count(c.m, c.n, opts)))
			for _, ctr := range []string{"trials", "trials_saved", "anytime_stops", "union_samples"} {
				emit(c.name+"/"+v.label+"/"+ctr, "%d", reg.Counter("countnfa_"+ctr+"_total").Value())
			}
		}

		opts := nfa.CountOptions{Epsilon: c.eps, Trials: 5, Seed: 7, MaxProcs: procs}
		for _, r := range [][2]int{{0, 2}, {2, 5}, {1, 4}} {
			ests, err := nfa.CountRange(c.m, c.n, opts, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			hex := make([]string, len(ests))
			for i, e := range ests {
				hex[i] = bits(e)
			}
			emit(fmt.Sprintf("%s/range[%d,%d)", c.name, r[0], r[1]), "%s", strings.Join(hex, ","))
		}

		ctr := nfa.NewCounter(c.m, nfa.CountOptions{Epsilon: c.eps, Trials: 3, Seed: 5, MaxProcs: procs})
		var counts []string
		for n := c.n - 2; n <= c.n; n++ {
			counts = append(counts, bits(ctr.Count(n)))
		}
		emit(c.name+"/counter_count", "%s", strings.Join(counts, ","))
	}
	return out
}

// TestWordEngineGolden pins the string engine's seeded output bit for
// bit over a fixed corpus — fixed and anytime estimates of Count with
// their trial and sampling counters, CountRange sub-ranges, and a
// Counter session's sweep — at MaxProcs 1 and 2. Every random draw
// derives from the seed, so any refactor of the engine or of its trial
// schedule must leave every line unchanged. Regenerate with
//
//	go test ./internal/nfa -run TestWordEngineGolden -update
//
// only when a change is meant to alter seeded output.
func TestWordEngineGolden(t *testing.T) {
	got := goldenLines(t, 1)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t)
	check := func(procs int, got []string) {
		if len(got) != len(want) {
			t.Fatalf("MaxProcs %d: %d golden lines, want %d", procs, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("MaxProcs %d line %d:\n got  %s\n want %s", procs, i+1, got[i], want[i])
			}
		}
	}
	check(1, got)
	check(2, goldenLines(t, 2))
}

func readGolden(t *testing.T) []string {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
