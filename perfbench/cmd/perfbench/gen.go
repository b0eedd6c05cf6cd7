package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Instance is one generated (query, database) pair in the public text
// formats the program reads: cq.Parse syntax and the one-fact-per-line
// database format.
type Instance struct {
	Name  string // shape label, e.g. "snowflake3/rational"
	Query string
	DB    string
}

// Generated instances keep each shape's structure, probabilities and
// fact order fixed, and draw from the seed the constant names and the
// estimator seeds. The automata do not depend on constant names, so an
// instance costs the same under every seed while each seed gets its own
// estimates. Fact order is not drawn: it decides how the automata number
// their states, and a shuffled order moved an instance's sampling cost
// up to twofold between seeds, which would make the metrics measure the
// draw rather than the program.

// Probability models, assigned to facts by position. A fact's
// multiplier gadget grows with its numerators, so "light" instances
// keep most facts at 1/2 and cost less to sample than "rational" ones.
var probModels = map[string][]string{
	"half":     {"1/2"},
	"rational": {"1/2", "1/3", "1/2", "1/4"},
	"light":    {"1/2", "1/2", "1/2", "1/3"},
}

type fact struct {
	rel  string
	args []string
}

// instanceGen renders a shape's facts with seed-drawn constant names.
type instanceGen struct {
	rng    *rand.Rand
	facts  []fact
	seen   map[string]bool
	labels map[string]string
}

func newInstanceGen(seed int64, salt string) *instanceGen {
	rng := rand.New(rand.NewSource(seed ^ int64(hashString(salt))))
	return &instanceGen{
		rng:    rng,
		seen:   map[string]bool{},
		labels: map[string]string{},
	}
}

// add appends a fact over template constants; a repeated fact is
// skipped so templates may overlap.
func (g *instanceGen) add(rel string, args ...string) {
	key := rel + "(" + strings.Join(args, ",") + ")"
	if g.seen[key] {
		return
	}
	g.seen[key] = true
	g.facts = append(g.facts, fact{rel, args})
}

// constant renames a template constant to a fresh random name.
func (g *instanceGen) constant(c string) string {
	if l, ok := g.labels[c]; ok {
		return l
	}
	l := fmt.Sprintf("k%06x%d", g.rng.Intn(1<<24), len(g.labels))
	g.labels[c] = l
	return l
}

func (g *instanceGen) render(model string) string {
	ps := probModels[model]
	probs := make([]string, len(g.facts))
	for i := range probs {
		probs[i] = ps[i%len(ps)]
	}
	var b strings.Builder
	for i, f := range g.facts {
		args := make([]string, len(f.args))
		for j, a := range f.args {
			args[j] = g.constant(a)
		}
		fmt.Fprintf(&b, "%s(%s) : %s\n", f.rel, strings.Join(args, ","), probs[i])
	}
	return b.String()
}

// snowflake is the star-of-chains query <rel>C(h1,h2) with two dimension
// chains of depth two: acyclic, unsafe, routed to the tree-automaton
// FPRAS when the lineage is too large for exact counting. The database
// has hubs complete hub rows plus two dangling rows per dimension
// relation.
func snowflake(seed int64, hubs int, model, rel string) Instance {
	const arms, depth, noise = 2, 2, 2
	name := fmt.Sprintf("snowflake%d/%s", hubs, model)
	if rel != "F" {
		name += "/" + rel
	}
	g := newInstanceGen(seed, name)
	var atoms []string
	hub := make([]string, arms)
	for i := range hub {
		hub[i] = fmt.Sprintf("h%d", i+1)
	}
	atoms = append(atoms, rel+"C("+strings.Join(hub, ",")+")")
	for i := 1; i <= arms; i++ {
		prev := hub[i-1]
		for j := 1; j <= depth; j++ {
			v := fmt.Sprintf("v%d_%d", i, j)
			atoms = append(atoms, fmt.Sprintf("%sD%d_%d(%s,%s)", rel, i, j, prev, v))
			prev = v
		}
	}
	for u := 0; u < hubs; u++ {
		args := make([]string, arms)
		for i := range args {
			args[i] = fmt.Sprintf("h%d_%d", u, i+1)
		}
		g.add(rel+"C", args...)
		for i := 1; i <= arms; i++ {
			prev := args[i-1]
			for j := 1; j <= depth; j++ {
				v := fmt.Sprintf("v%d_%d_%d", i, j, u)
				g.add(fmt.Sprintf("%sD%d_%d", rel, i, j), prev, v)
				prev = v
			}
		}
	}
	for i := 1; i <= arms; i++ {
		for j := 1; j <= depth; j++ {
			for k := 0; k < noise; k++ {
				g.add(fmt.Sprintf("%sD%d_%d", rel, i, j),
					fmt.Sprintf("z%d", (3*k+i+j)%8), fmt.Sprintf("z%d", (5*k+2*i+j+1)%8))
			}
		}
	}
	return Instance{Name: name, Query: strings.Join(atoms, ", "), DB: g.render(model)}
}

// path is the unsafe path query R1(x1,x2), …, Rn(xn,xn+1) over
// chains complete chains plus noise cross edges per relation: binary
// facts, so the router sends it to the string-automaton FPRAS once the
// lineage is too large for exact counting.
func path(seed int64, n, chains, noise int, model string) Instance {
	name := fmt.Sprintf("path%d/c%d/%s", n, chains, model)
	g := newInstanceGen(seed, name)
	atoms := make([]string, n)
	for i := range atoms {
		atoms[i] = fmt.Sprintf("R%d(x%d,x%d)", i+1, i+1, i+2)
	}
	for c := 0; c < chains; c++ {
		for l := 1; l <= n; l++ {
			g.add(fmt.Sprintf("R%d", l), fmt.Sprintf("v%d_%d", c, l-1), fmt.Sprintf("v%d_%d", c, l))
		}
	}
	nodes := 4*chains + 4
	for l := 1; l <= n; l++ {
		for k := 0; k < noise; k++ {
			g.add(fmt.Sprintf("R%d", l),
				fmt.Sprintf("z%d", (7*k+3*l)%nodes), fmt.Sprintf("z%d", (11*k+5*l+1)%nodes))
		}
	}
	return Instance{Name: name, Query: strings.Join(atoms, ", "), DB: g.render(model)}
}

// star is the hierarchical query S1(x,y1), S2(x,y2), S3(x,y3): safe, so
// the router answers it exactly with the Dalvi–Suciu plan.
func star(seed int64) Instance {
	name := "star3/rational"
	g := newInstanceGen(seed, name)
	atoms := []string{"S1(x,y1)", "S2(x,y2)", "S3(x,y3)"}
	for x := 0; x < 4; x++ {
		for r := 1; r <= 3; r++ {
			for y := 0; y < 2; y++ {
				g.add(fmt.Sprintf("S%d", r), fmt.Sprintf("x%d", x), fmt.Sprintf("y%d_%d", r, (x+y)%3))
			}
		}
	}
	return Instance{Name: name, Query: strings.Join(atoms, ", "), DB: g.render("rational")}
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer; it derives per-op seeds from
// (workload seed, op index).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opSeed is the estimator seed of op i: a positive int64 that is a
// pure function of (workload seed, i).
func opSeed(seed int64, i int) int64 {
	return int64(mix64(uint64(seed)*0x100000001b3+uint64(i))>>1) | 1
}
