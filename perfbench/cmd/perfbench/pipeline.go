package main

import (
	"fmt"
	"math/big"
	"strings"

	"pqe/internal/count"
	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/hypertree"
	"pqe/internal/lineage"
	"pqe/internal/nfa"
	"pqe/internal/obdd"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/reduction"
	"pqe/internal/router"
	"pqe/internal/safeplan"
)

// built is one instance taken through the program's pipeline by direct
// calls into its modules, one span per call:
//
//	cq.Parse → pdb.Parse → hypertree.Decompose → router.Decide →
//	reduction.New{UR,Path}Builder(…).Build → Trim →
//	reduction.Weight{UR,PathNFA}
//
// and then, per op, count.Trees or nfa.Count. The composition mirrors
// what a pqe.Estimator session does for a forced FPRAS strategy, so its
// estimates are bit-identical to the library's for the same seed.
type built struct {
	inst  Instance
	q     *cq.Query
	h     *pdb.Probabilistic
	width int
	route router.Decision
	tree  *reduction.PQEReduction     // tree pipeline (force-nfta)
	path  *reduction.PathPQEReduction // string pipeline (force-nfa)
}

// Size reports the weighted automaton's states, transitions and tree
// or word size n.
func (b *built) Size() (states, transitions, n int) {
	switch {
	case b.tree != nil:
		return b.tree.Auto.NumStates(), b.tree.Auto.NumTransitions(), b.tree.TreeSize
	case b.path != nil:
		return b.path.Auto.NumStates(), b.path.Auto.NumTransitions(), b.path.WordSize
	}
	return 0, 0, 0
}

// buildInstance runs the construction pipeline for engine ("nfta" or
// "nfa") under a root span; tr may be nil.
func buildInstance(tr *Tracer, in Instance, engine string) (*built, error) {
	root := tr.Begin(0, "core.setup", in.Name)
	defer tr.Finish(root)
	call := func(name string, fn func() error) error {
		id := tr.Begin(root, name, in.Name)
		err := fn()
		tr.Finish(id)
		if err != nil {
			return fmt.Errorf("%s %s: %w", in.Name, name, err)
		}
		return nil
	}
	b := &built{inst: in}
	var dec *hypertree.Decomposition
	if err := call("cq.Parse", func() (err error) { b.q, err = cq.Parse(in.Query); return }); err != nil {
		return nil, err
	}
	if err := call("pdb.Parse", func() (err error) { b.h, err = pdb.Parse(strings.NewReader(in.DB)); return }); err != nil {
		return nil, err
	}
	if err := call("hypertree.Decompose", func() (err error) { dec, err = hypertree.Decompose(b.q); return }); err != nil {
		return nil, err
	}
	b.width = dec.Width()
	rels := b.q.RelationSet()
	proj, projH := b.h.DB().Project(rels), b.h.Project(rels)
	class := router.Class{
		SelfJoinFree: b.q.SelfJoinFree(),
		BoundedHW:    b.width <= b.q.Len(),
		Safe:         safeplan.IsSafe(b.q),
		Path:         b.q.IsPath(),
		Width:        b.width,
	}
	_ = call("router.Decide", func() error { b.route = router.Decide(b.q, proj, class, router.Config{}); return nil })
	switch engine {
	case "nfta":
		var ur *reduction.URReduction
		if err := call("reduction.Build", func() error {
			ub, err := reduction.NewURBuilder(b.q, proj, dec)
			if err != nil {
				return err
			}
			ur, err = ub.Build(nil)
			return err
		}); err != nil {
			return nil, err
		}
		if err := call("reduction.WeightUR", func() (err error) { b.tree, err = reduction.WeightUR(ur, projH); return }); err != nil {
			return nil, err
		}
	case "nfa":
		var m *nfa.NFA
		if err := call("reduction.Build", func() error {
			pb, err := reduction.NewPathBuilder(b.q, proj)
			if err != nil {
				return err
			}
			m, err = pb.Build()
			return err
		}); err != nil {
			return nil, err
		}
		_ = call("reduction.Trim", func() error { m = m.Trim(); return nil })
		if err := call("reduction.WeightPathNFA", func() (err error) { b.path, err = reduction.WeightPathNFA(b.q, projH, m); return }); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown engine %q", engine)
	}
	return b, nil
}

// estimate runs one FPRAS op over the built automaton: the counting
// call under its own span, then the rescaling by the probability
// denominators. sc receives the engine's counters.
func (b *built) estimate(tr *Tracer, root int, op string, seed int64, eps float64, maxProcs int, sc *obs.Scope) float64 {
	var c efloat.E
	var den *big.Int
	switch {
	case b.tree != nil:
		id := tr.Begin(root, "count.Trees", op)
		c = count.Trees(b.tree.Auto, b.tree.TreeSize, count.Options{
			Epsilon: eps, Seed: seed, Anytime: true, MaxProcs: maxProcs, Obs: sc,
		})
		tr.Finish(id)
		den = b.tree.DenProduct
	default:
		id := tr.Begin(root, "nfa.Count", op)
		c = nfa.Count(b.path.Auto, b.path.WordSize, nfa.CountOptions{
			Epsilon: eps, Seed: seed, Anytime: true, MaxProcs: maxProcs, Obs: sc,
		})
		tr.Finish(id)
		den = b.path.DenProduct
	}
	return c.Ratio(efloat.FromBigInt(den))
}

// oracle is the exact answer of one database state.
type oracle struct {
	value float64
	via   string // "safeplan" or "lineage"
}

// exactOracle computes Pr(Q) exactly: the safe plan for safe queries,
// otherwise lineage WMC cross-checked against OBDD WMC. Each module
// call gets a span under root.
func exactOracle(tr *Tracer, root int, op string, q *cq.Query, h *pdb.Probabilistic) (oracle, error) {
	spanned := func(name string, fn func()) {
		id := tr.Begin(root, name, op)
		fn()
		tr.Finish(id)
	}
	if safeplan.IsSafe(q) {
		var p *big.Rat
		var err error
		spanned("safeplan.Evaluate", func() { p, err = safeplan.Evaluate(q, h) })
		if err != nil {
			return oracle{}, err
		}
		f, _ := p.Float64()
		return oracle{f, "safeplan"}, nil
	}
	proj := h.Project(q.RelationSet())
	var f *lineage.DNF
	var err error
	spanned("lineage.Compute", func() { f, err = lineage.Compute(q, proj.DB(), 1<<20) })
	if err != nil {
		return oracle{}, err
	}
	var wmc *big.Rat
	spanned("lineage.WMCExact", func() { wmc = f.WMCExact(proj) })
	var o *obdd.OBDD
	spanned("obdd.CompileDNF", func() { o, err = obdd.CompileDNF(f, 1<<17) })
	if err == nil {
		var w2 *big.Rat
		spanned("obdd.WMC", func() { w2 = o.WMC(proj) })
		if w2.Cmp(wmc) != 0 {
			return oracle{}, fmt.Errorf("lineage WMC %s and OBDD WMC %s disagree", wmc.FloatString(17), w2.FloatString(17))
		}
	}
	v, _ := wmc.Float64()
	return oracle{v, "lineage"}, nil
}
