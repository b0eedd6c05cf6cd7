package count_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"pqe"
	"pqe/internal/count"
	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/hypertree"
	"pqe/internal/nfta"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/reduction"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tree_golden.txt from the current engine")

const goldenPath = "testdata/tree_golden.txt"

// goldenCase is one automaton of the bit-identity corpus with the size
// counted and the estimator settings used for it.
type goldenCase struct {
	name string
	a    *nfta.NFTA
	n    int
	eps  float64
}

// weightedInstance is a probabilistic database whose Theorem 1 weighted
// automaton has well over 64 states, so acceptance sets span several
// words.
type weightedInstance struct {
	name string
	q    *cq.Query
	h    *pdb.Probabilistic
}

func weightedInstances() []weightedInstance {
	snow := cq.SnowflakeQuery("F", 2, 2)
	star := cq.StarQuery("S", 3)
	return []weightedInstance{
		{"snowflake2", snow, gen.SnowflakeInstance(snow, 2, 2, gen.ProbRandomRational, 5)},
		{"star3", star, gen.Instance(star, gen.Config{FactsPerRelation: 6, DomainSize: 4, Model: gen.ProbRandomRational, Seed: 11})},
	}
}

func goldenCorpus(t *testing.T) []goldenCase {
	rng := rand.New(rand.NewSource(17))
	var cs []goldenCase
	for i := 0; i < 16; i++ {
		cs = append(cs, goldenCase{fmt.Sprintf("random%02d", i), count.RandomNFTA(rng), 3 + i%6, 0.3})
	}
	for i := 0; i < 8; i++ {
		cs = append(cs, goldenCase{fmt.Sprintf("dense%02d", i), count.RandomDenseNFTA(rng, 3+rng.Intn(4)), 4 + i%5, 0.3})
	}
	for i := 0; i < 3; i++ {
		cs = append(cs, goldenCase{fmt.Sprintf("wide%02d", i), count.RandomDenseNFTA(rng, 65+rng.Intn(60)), 5 + i, 0.4})
	}
	cs = append(cs,
		goldenCase{"ambiguous", count.Ambiguous(), 9, 0.2},
		goldenCase{"heavyOverlap", count.HeavyOverlap(), 9, 0.2},
		goldenCase{"fullBinary", count.FullBinary(), 9, 0.2},
	)
	for _, w := range weightedInstances() {
		dec, err := hypertree.Decompose(w.q)
		if err != nil {
			t.Fatal(err)
		}
		red, err := reduction.BuildPQE(w.q, w.h, dec)
		if err != nil {
			t.Fatal(err)
		}
		if red.Auto.NumStates() <= 64 {
			t.Fatalf("%s: %d states, want > 64", w.name, red.Auto.NumStates())
		}
		cs = append(cs, goldenCase{"weighted/" + w.name, red.Auto, red.TreeSize, 0.5})
	}
	return cs
}

func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// goldenLines runs the whole corpus at one MaxProcs setting and renders
// every pinned quantity as a "name value" line.
func goldenLines(t *testing.T, procs int) []string {
	var out []string
	emit := func(name, format string, args ...any) {
		out = append(out, name+" "+fmt.Sprintf(format, args...))
	}
	corpus := goldenCorpus(t)
	for _, c := range corpus {
		opts := count.Options{Epsilon: c.eps, Trials: 5, Seed: 7, MaxProcs: procs}

		reg := obs.NewRegistry()
		o := opts
		o.Obs = obs.NewScope(nil, reg, nil)
		emit(c.name+"/trees", "%s", bits(count.Trees(c.a, c.n, o).Float()))
		for _, ctr := range []string{"union_samples", "rejections", "accept_checks"} {
			emit(c.name+"/"+ctr, "%d", reg.Counter("countnfta_"+ctr+"_total").Value())
		}

		for _, r := range [][2]int{{0, 2}, {2, 5}, {1, 4}} {
			ests, err := count.TreesRange(c.a, c.n, opts, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			hex := make([]string, len(ests))
			for i, e := range ests {
				hex[i] = bits(e.Float())
			}
			emit(fmt.Sprintf("%s/range[%d,%d)", c.name, r[0], r[1]), "%s", strings.Join(hex, ","))
		}

		keys := make([]string, 0, 4)
		for seed := int64(1); seed <= 4; seed++ {
			o := opts
			o.Seed = seed
			keys = append(keys, treeKey(count.SampleTree(c.a, c.n, o)))
		}
		emit(c.name+"/sample_tree", "%s", strings.Join(keys, " "))

		ctr := count.NewCounter(c.a, count.Options{Epsilon: c.eps, Trials: 3, Seed: 5, MaxProcs: procs})
		keys = keys[:0]
		for i := 0; i < 3; i++ {
			keys = append(keys, treeKey(ctr.Sample(c.n)))
		}
		emit(c.name+"/counter_samples", "%s", strings.Join(keys, " "))
	}
	for _, w := range weightedInstances() {
		q, err := pqe.ParseQuery(w.q.String())
		if err != nil {
			t.Fatal(err)
		}
		d, err := pqe.ParseDatabase(strings.NewReader(pdb.FormatString(w.h)))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			res, err := pqe.Probability(q, d, &pqe.Options{Strategy: "force-nfta", Epsilon: 0.5, Trials: 3, Seed: seed, MaxProcs: procs})
			if err != nil {
				t.Fatal(err)
			}
			emit(fmt.Sprintf("pqe/%s/seed%d", w.name, seed), "%s", bits(res.Probability))
		}
	}
	// The trial schedule: fixed and anytime estimates with their trial
	// counters, and a Counter session's sweep. The tight variant's narrow
	// ε-band with few samples keeps ambiguous automata from agreeing at
	// the floor, so the anytime schedule runs several batches.
	for _, c := range corpus {
		for _, v := range []struct {
			label   string
			eps     float64
			samples int
			anytime bool
		}{
			{"trees", c.eps, 0, false},
			{"trees_anytime", c.eps, 0, true},
			{"trees_anytime_tight", 0.03, 30, true},
		} {
			reg := obs.NewRegistry()
			opts := count.Options{Epsilon: v.eps, Samples: v.samples, Trials: 9, Seed: 7, MaxProcs: procs,
				Anytime: v.anytime, Obs: obs.NewScope(nil, reg, nil)}
			emit(c.name+"/schedule/"+v.label, "%s", bits(count.Trees(c.a, c.n, opts).Float()))
			for _, ctr := range []string{"trials", "trials_saved", "anytime_stops", "union_samples"} {
				emit(c.name+"/schedule/"+v.label+"/"+ctr, "%d", reg.Counter("countnfta_"+ctr+"_total").Value())
			}
		}
		ctr := count.NewCounter(c.a, count.Options{Epsilon: c.eps, Trials: 3, Seed: 5, MaxProcs: procs})
		var counts []string
		for n := c.n - 2; n <= c.n; n++ {
			counts = append(counts, bits(ctr.Count(n).Float()))
		}
		emit(c.name+"/counter_count", "%s", strings.Join(counts, ","))
	}
	return out
}

func treeKey(t *nfta.Tree) string {
	if t == nil {
		return "nil"
	}
	return t.Key()
}

// TestTreeEngineGolden pins the tree engine's seeded output bit for bit
// over a fixed corpus — estimates of Trees and of TreesRange
// sub-ranges, sampled trees, the sampling effort counters, and
// force-nfta PQE estimates on weighted automata with more than 64
// states — at MaxProcs 1 and 2. Membership testing is an exact boolean
// and every random draw derives from the seed, so any optimisation of
// the engine must leave every line unchanged. Regenerate with
//
//	go test ./internal/count -run TestTreeEngineGolden -update
//
// only when a change is meant to alter seeded output.
func TestTreeEngineGolden(t *testing.T) {
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
