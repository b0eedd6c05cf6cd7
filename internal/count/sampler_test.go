package count

import (
	"math/rand"
	"testing"

	"pqe/internal/bitset"
	"pqe/internal/nfta"
	"pqe/internal/sched"
	"pqe/internal/splitmix"
)

// checkSet fails unless set is exactly the map-based reference
// accepting-state set of tree.
func checkSet(t *testing.T, a *nfta.NFTA, tree *nfta.Tree, set bitset.Set) {
	t.Helper()
	want := a.AcceptingStates(tree)
	if len(set) != bitset.Words(a.NumStates()) || set.Count() != len(want) {
		t.Fatalf("set of %s: %d words with %d bits, reference has %d states", tree, len(set), set.Count(), len(want))
	}
	for q := range want {
		if !set.Has(q) {
			t.Fatalf("set of %s misses accepting state %d", tree, q)
		}
	}
}

// drawAll draws, on one sampler without resetting it, a tree from every
// computed (state, size) pair and a forest from every computed (tuple,
// size) pair, and returns every tree handed back with its set.
func drawAll(s *sampler, r *run, n int) (trees []*nfta.Tree, sets []bitset.Set) {
	keep := func(ts []*nfta.Tree, ss []bitset.Set) {
		trees = append(trees, ts...)
		sets = append(sets, ss...)
	}
	for m := 1; m <= n; m++ {
		for q := range r.pl.states {
			if _, ok := r.trees.Get(q, m); !ok {
				continue
			}
			if tr, set := s.sampleTree(q, m); tr != nil {
				keep([]*nfta.Tree{tr}, []bitset.Set{set})
			}
		}
		for tid, tuple := range r.pl.tuples {
			if _, ok := r.forests.Get(tid, m); !ok || len(tuple) < 2 {
				continue
			}
			if f, fs, ok := s.sampleForestAlloc(tid, m); ok {
				keep(f, fs)
			}
		}
	}
	return trees, sets
}

// Every acceptance set the sampler hands back equals the reference
// AcceptingStates of its tree: for transient (arena) draws across
// arena and slab growth — all sets of a round are checked only after
// the round's last draw, so a chunk replaced mid-round must leave them
// intact — and after resets, and for escaping draws.
func TestSamplerSetsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	corpus := []*nfta.NFTA{ambiguous(), heavyOverlap(), fullBinary()}
	for i := 0; i < 6; i++ {
		corpus = append(corpus, randomNFTA(rng), randomDenseNFTA(rng, 3+rng.Intn(5)))
	}
	corpus = append(corpus, randomDenseNFTA(rng, 70), randomDenseNFTA(rng, 130))
	const n = 9
	checked, grown := 0, 0
	for ci, a := range corpus {
		pl, _ := planFor(a)
		opts := Options{Epsilon: 0.3, Trials: 1, Seed: int64(ci + 1)}.withDefaults()
		call := newCallState(pl, 1)
		r := pl.getRun(opts, int64(ci+1))
		sched.Run(sched.Config{Procs: 1, Trials: 1}, func(w *sched.Worker, _ int) {
			r.w, r.call = w, call
			r.ensurePfx(n)
			r.treeEst(a.Initial(), n)
			s := pl.getSampler()
			s.bind(r)
			s.rng = splitmix.New(uint64(ci))
			for _, escaping := range []bool{false, true} {
				s.arena = nil
				if !escaping {
					s.arena = &treeArena{}
				}
				for round := 0; round < 3; round++ {
					if s.arena != nil {
						s.arena.reset()
					}
					s.sets.reset()
					var trees []*nfta.Tree
					var sets []bitset.Set
					for pass := 0; pass < 8; pass++ {
						ts, ss := drawAll(s, r, n)
						trees, sets = append(trees, ts...), append(sets, ss...)
					}
					for i := range trees {
						checkSet(t, a, trees[i], sets[i])
					}
					checked += len(trees)
				}
				if s.arena != nil && len(s.arena.nodes.buf) > arenaChunk {
					grown++
				}
				if tr := s.drawTree(a.Initial(), n); tr != nil && !a.Accepts(tr) {
					t.Fatalf("automaton %d: top-level draw %s rejected", ci, tr)
				}
			}
		})
	}
	if checked < 10000 || grown < 5 {
		t.Errorf("%d sampled trees checked, arena grew past one chunk on %d automata", checked, grown)
	}
}
