package count

import (
	"pqe/internal/bitset"
	"pqe/internal/efloat"
	"pqe/internal/nfta"
	"pqe/internal/splitmix"
)

// sampler is a sampling session over a frozen run: it draws trees and
// forests reading the memo tables and the plan's transition structure
// but never writing them, so any number of samplers may run
// concurrently over one run. All scratch state (acceptance-set slab,
// tree arena, rejection counter) lives here; the scheduler binds one
// sampler per worker, rebinding it to the chunk's run at every chunk
// boundary (bind), so a sampler serves many trials within a call.
//
// The invariant the read-only lookups rely on: a sampler is only ever
// asked for (state, size) pairs whose estimates were computed — the
// estimation pass at a given size computes exactly the sub-estimates
// its sampling consults (all strictly smaller sizes), and the
// top-level APIs run treeEst before sampling.
type sampler struct {
	r          *run
	rng        splitmix.Stream
	sets       setSlab
	arena      *treeArena // nil when sampled trees escape to callers
	rejections int
	// acceptChecks counts acceptance-set membership tests (one per
	// forest tree tested), summed per call like rejections.
	acceptChecks int
}

func newSampler(pl *plan) *sampler {
	return &sampler{sets: setSlab{words: bitset.Words(pl.a.NumStates())}}
}

// bind points the sampler at a run. Samplers are plan-scoped (the set
// slab is sized to the automaton), so binding only swaps the memo
// tables it reads.
func (s *sampler) bind(r *run) { s.r = r }

// chunks bump-allocates slices of T from reusable chunks. When the
// current chunk runs out a fresh, larger one replaces it; slices handed
// out from the old chunk stay valid. reset makes the current chunk
// reusable from the start, so a steady-state loop that resets between
// uses allocates nothing.
type chunks[T any] struct {
	buf  []T
	used int
}

const arenaChunk = 512

func (c *chunks[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if c.used+n > len(c.buf) {
		c.buf = make([]T, max(arenaChunk, 2*len(c.buf)+n))
		c.used = 0
	}
	s := c.buf[c.used : c.used+n : c.used+n]
	c.used += n
	return s
}

func (c *chunks[T]) reset() { c.used = 0 }

// treeArena bump-allocates tree nodes and children slices. Overlap
// sampling builds a forest only to membership-test and discard it;
// with the arena reset between samples, the steady-state loop performs
// no heap allocation for trees at all.
type treeArena struct {
	nodes chunks[nfta.Tree]
	refs  chunks[*nfta.Tree]
}

func (ar *treeArena) reset() { ar.nodes.reset(); ar.refs.reset() }

func (ar *treeArena) node(sym int, children []*nfta.Tree) *nfta.Tree {
	t := &ar.nodes.take(1)[0]
	t.Sym, t.Children = sym, children
	return t
}

func (ar *treeArena) slice(n int) []*nfta.Tree { return ar.refs.take(n) }

// setSlab holds the acceptance sets of one draw: bit q of a node's set
// is set iff the node's subtree is accepted from q. The sampler
// computes each node's set once, from its children's sets, as it
// builds the node (nodeSet), so a membership test never re-walks a
// subtree. No set outlives its draw: countFresh resets the slab with
// the tree arena before every overlap sample, and drawTree before
// every top-level draw.
type setSlab struct {
	words int                // words per set
	buf   chunks[uint64]     // the sets
	refs  chunks[bitset.Set] // per-node slices of its children's sets
}

func (sl *setSlab) reset() { sl.buf.reset(); sl.refs.reset() }

// nodeSet returns the acceptance set of a node labelled sym whose
// children have acceptance sets kids.
func (s *sampler) nodeSet(sym int, kids []bitset.Set) bitset.Set {
	dst := bitset.Set(s.sets.buf.take(s.sets.words))
	s.r.pl.a.StepAccepting(dst, sym, kids)
	return dst
}

// newTree and newForest allocate through the arena when the sampler has
// one (transient draws), or on the heap (escaping draws).
func (s *sampler) newTree(sym int, children []*nfta.Tree) *nfta.Tree {
	if s.arena != nil {
		return s.arena.node(sym, children)
	}
	return &nfta.Tree{Sym: sym, Children: children}
}

func (s *sampler) newForest(n int) []*nfta.Tree {
	if s.arena != nil {
		return s.arena.slice(n)
	}
	return make([]*nfta.Tree, n)
}

// pick returns an index with probability proportional to the weights,
// or -1 if all are zero. It is the reference implementation that
// pickRow's cached binary search must match draw-for-draw (pinned by
// TestPickRowMatchesPick); the hot paths all go through pickRow.
func (s *sampler) pick(weights []efloat.E) int {
	total := efloat.Sum(weights...)
	if total.IsZero() {
		return -1
	}
	target := total.MulFloat(s.rng.Float64())
	acc := efloat.Zero
	last := -1
	for i, w := range weights {
		if w.IsZero() {
			continue
		}
		last = i
		acc = acc.Add(w)
		if target.Less(acc) {
			return i
		}
	}
	return last
}

// pickRow is pick over a cached prefix row: one uniform variate, one
// binary search for the leftmost index whose prefix sum exceeds the
// target. Zero weights leave the prefix sum unchanged (efloat.Add
// returns the other operand exactly when one side is Zero), so the
// leftmost crossing index always carries nonzero weight and equals the
// index the reference scan stops at; the row's last field reproduces
// the scan's fallback when rounding pushes the target to the total.
func (s *sampler) pickRow(p *prefixRow) int {
	cum := p.cum
	n := len(cum)
	if n == 0 {
		return -1
	}
	total := cum[n-1]
	if total.IsZero() {
		return -1
	}
	target := total.MulFloat(s.rng.Float64())
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if target.Less(cum[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < n {
		return lo
	}
	return p.last
}

// countFresh draws the overlap samples lo ≤ i < hi for union branch j
// at size n and counts those landing outside all earlier branches. Each
// sample runs on its own PRNG derived from (trial seed, site, i), so
// the count is independent of how samples are partitioned across
// workers and chunks.
func (s *sampler) countFresh(tuples []int, j, n int, site uint64, lo, hi int) int {
	if s.arena == nil {
		s.arena = &treeArena{}
	}
	fresh := 0
	for i := lo; i < hi; i++ {
		s.rng = splitmix.Derive(s.r.seed, site, i)
		s.arena.reset()
		s.sets.reset()
		_, sets, ok := s.sampleForestAlloc(tuples[j], n-1)
		if !ok {
			continue
		}
		if s.firstAccepting(tuples[:j], sets) < 0 {
			fresh++
		}
	}
	return fresh
}

// drawTree is a top-level draw from T(q, n): the tree escapes to the
// caller and its acceptance sets are dropped.
func (s *sampler) drawTree(q, n int) *nfta.Tree {
	s.sets.reset()
	t, _ := s.sampleTree(q, n)
	return t
}

// sampleTree draws a near-uniform tree from T(q, n) together with its
// acceptance set, or nil if empty.
func (s *sampler) sampleTree(q, n int) (*nfta.Tree, bitset.Set) {
	r := s.r
	if r.treeLookup(q, n).IsZero() {
		return nil, nil
	}
	entries := r.pl.states[q]
	i := s.pickRow(r.entryRow(q, n))
	if i < 0 {
		return nil, nil
	}
	en := &entries[i]
	if len(en.tuples) == 1 {
		f, fs, ok := s.sampleForestAlloc(en.tuples[0], n-1)
		if !ok {
			return nil, nil
		}
		return s.newTree(en.sym, f), s.nodeSet(en.sym, fs)
	}
	brow := r.branchRow(en, n)
	maxRetry := r.maxRetry
	if maxRetry <= 0 {
		maxRetry = 32 * len(en.tuples)
	}
	// Canonical-first rejection: a draw from branch j is kept only if no
	// earlier branch accepts it, which makes the draw uniform over the
	// union.
	var last *nfta.Tree
	var lastSets []bitset.Set
	for retry := 0; retry < maxRetry; retry++ {
		j := s.pickRow(brow)
		if j < 0 {
			break
		}
		f, fs, ok := s.sampleForestAlloc(en.tuples[j], n-1)
		if !ok {
			continue
		}
		last, lastSets = s.newTree(en.sym, f), fs
		if j == 0 || s.firstAccepting(en.tuples[:j], fs) < 0 {
			return last, s.nodeSet(en.sym, fs)
		}
		s.rejections++
	}
	// Retry budget exhausted: return the latest draw (slightly biased
	// towards multiply-covered trees; the budget makes this path rare).
	if last == nil {
		return nil, nil
	}
	return last, s.nodeSet(en.sym, lastSets)
}

// sampleForestAlloc draws a near-uniform forest from F(tuple, m) into a
// fresh slice (retained as tree children, or membership-tested and
// discarded), with its acceptance sets.
func (s *sampler) sampleForestAlloc(tid, m int) ([]*nfta.Tree, []bitset.Set, bool) {
	k := len(s.r.pl.tuples[tid])
	out, sets := s.newForest(k), s.sets.refs.take(k)
	if !s.sampleForestInto(tid, m, out, sets) {
		return nil, nil, false
	}
	return out, sets, true
}

// sampleForestInto fills out (of length len(tuple)) with a near-uniform
// forest from F(tuple, m), and sets with the trees' acceptance sets,
// reporting false if empty. Splits are disjoint, so no rejection is
// needed. The suffix chain is walked iteratively using the precomputed
// rest-tuple IDs — no per-level slice copying.
func (s *sampler) sampleForestInto(tid, m int, out []*nfta.Tree, sets []bitset.Set) bool {
	r := s.r
	for i := 0; ; i++ {
		tuple := r.pl.tuples[tid]
		switch len(tuple) {
		case 0:
			return m == 0
		case 1:
			t, set := s.sampleTree(tuple[0], m)
			if t == nil {
				return false
			}
			out[i], sets[i] = t, set
			return true
		}
		maxHead := m - (len(tuple) - 1)
		if maxHead < 1 {
			return false
		}
		k := s.pickRow(r.splitRow(tid, m, maxHead))
		if k < 0 {
			return false
		}
		j := k + 1
		head, set := s.sampleTree(tuple[0], j)
		if head == nil {
			return false
		}
		out[i], sets[i] = head, set
		tid, m = r.pl.restID[tid], m-j
	}
}

// firstAccepting returns the index of the first tuple accepting the
// forest whose trees have acceptance sets sets, or -1: per tuple, one
// bit probe per tree.
func (s *sampler) firstAccepting(tuples []int, sets []bitset.Set) int {
	s.acceptChecks += len(sets)
	for j, tid := range tuples {
		tuple := s.r.pl.tuples[tid]
		if len(tuple) != len(sets) {
			continue
		}
		ok := true
		for i, q := range tuple {
			if !sets[i].Has(q) {
				ok = false
				break
			}
		}
		if ok {
			return j
		}
	}
	return -1
}
