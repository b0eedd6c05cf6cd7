package nfta

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"pqe/internal/alphabet"
	"pqe/internal/bitset"
)

// Lambda is the pseudo-symbol of λ-transitions (s, λ, R). Automata must
// be λ-free (see EliminateLambda) before acceptance testing or counting.
const Lambda = -1

// Transition is a tuple (From, Sym, Children) ∈ S × Σ × (∪ᵢ Sⁱ). A leaf
// transition has an empty Children tuple.
type Transition struct {
	From     int
	Sym      int // symbol ID, or Lambda
	Children []int
}

// key returns a canonical identity for deduplication.
func (tr Transition) key() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(tr.From))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(tr.Sym))
	b.WriteByte('|')
	for _, c := range tr.Children {
		b.WriteString(strconv.Itoa(c))
		b.WriteByte(',')
	}
	return b.String()
}

// NFTA is a top-down non-deterministic finite tree automaton
// T = (S, Σ, Δ, s_init).
type NFTA struct {
	Symbols   *alphabet.Interner
	numStates int
	initial   int
	trans     []Transition
	numLambda int
	// seen deduplicates transitions; nil disables deduplication for
	// constructions whose output is duplicate-free by construction
	// (translations, λ-elimination, trim), where the key-string build
	// and map insert per transition are pure overhead.
	seen map[string]bool
	// version counts structural mutations (states, transitions, initial
	// state). The lazily built caches below — and the counting engine's
	// plan — are keyed to it, so a mutation can never alias a stale
	// cache, even when it leaves the transition and state counts
	// unchanged (e.g. SetInitial).
	version uint64
	acc     atomic.Pointer[accIndex]
	from    atomic.Pointer[fromIndex]
	plan    atomic.Pointer[enginePlanBox]
}

// enginePlanBox pairs a counting engine's cached per-automaton plan
// with the structural version it was built at, the same lazy keying as
// accIndex. The value is opaque to this package: the engine
// (internal/count) defines the plan type, and keeping the slot here
// lets every session over one automaton share one plan without an
// import cycle.
type enginePlanBox struct {
	version uint64
	v       any
}

// EnginePlan returns the value stored by SetEnginePlan, if the
// automaton's structural version is unchanged since it was stored.
// (An earlier revision keyed the cache by (len(trans), numStates),
// which collides for structurally different automata of equal sizes —
// SetInitial, in particular, changes the language without changing
// either count.)
func (a *NFTA) EnginePlan() (any, bool) {
	if b := a.plan.Load(); b != nil && b.version == a.version {
		return b.v, true
	}
	return nil, false
}

// SetEnginePlan caches an engine plan on the automaton, keyed to its
// current structural version. Concurrent builders may race to store;
// each keeps a fully usable plan either way, and the last store wins.
func (a *NFTA) SetEnginePlan(v any) {
	a.plan.Store(&enginePlanBox{version: a.version, v: v})
}

// Version returns the monotone structural mutation counter.
func (a *NFTA) Version() uint64 { return a.version }

// accIndex is the lazily built acceptance index, rebuilt whenever the
// automaton's version moved since the last build; concurrent readers
// may race to rebuild, which is idempotent (mutating an automaton while
// testing acceptance on it is not supported). Per (symbol, arity) cell
// it holds:
//
//   - the cell's transitions, one slice indexing instead of a map hash
//     per node, for the map-based AcceptingStates;
//   - for a leaf cell, the constant accepting set of a leaf so labelled;
//   - for an inner cell, its transitions grouped by first child, with a
//     bit mask of those first children: a node's step ANDs its first
//     child's set with the mask and finds each surviving state's group
//     by a rank (a popcount) in O(1), so it touches only transitions
//     whose first child accepts.
type accIndex struct {
	nsyms, maxAr int
	cells        [][]int32 // sym*(maxAr+1)+arity -> transition indices
	built        uint64    // automaton version at build time

	words  int      // words per state set
	slotOf []int32  // cell -> its slot in leaf (arity 0) or mask, or -1
	leaf   []uint64 // leaf accepting sets, words per slot
	// mask[slot*words+w] holds the first children of the slot's cell in
	// word w, and rank[slot*words+w] the index of the group of the
	// first of them: the groups before the slot plus the mask bits in
	// the slot's earlier words.
	mask   []uint64
	rank   []int32
	grpRec []int32 // grpRec[g]..grpRec[g+1]: group g's records in rec
	// rec holds one record per transition of arity k ≥ 1, k int32s
	// wide: the From state, then children 2..k.
	rec []int32
}

func (a *NFTA) accIdx() *accIndex {
	if idx := a.acc.Load(); idx != nil && idx.built == a.version {
		return idx
	}
	idx := &accIndex{nsyms: a.Symbols.Size(), maxAr: a.MaxArity(), built: a.version}
	idx.cells = make([][]int32, idx.nsyms*(idx.maxAr+1))
	for j, tr := range a.trans {
		if tr.Sym == Lambda {
			continue
		}
		c := tr.Sym*(idx.maxAr+1) + len(tr.Children)
		idx.cells[c] = append(idx.cells[c], int32(j))
	}
	idx.buildStep(a)
	a.acc.Store(idx)
	return idx
}

// buildStep fills the leaf sets and the first-child groups from cells.
func (x *accIndex) buildStep(a *NFTA) {
	x.words = bitset.Words(a.numStates)
	x.slotOf = make([]int32, len(x.cells))
	var byFirst []int32
	for c, cell := range x.cells {
		x.slotOf[c] = -1
		if len(cell) == 0 {
			continue
		}
		if c%(x.maxAr+1) == 0 {
			x.slotOf[c] = int32(len(x.leaf) / x.words)
			x.leaf = append(x.leaf, make([]uint64, x.words)...)
			set := bitset.Set(x.leaf[len(x.leaf)-x.words:])
			for _, j := range cell {
				set.Add(a.trans[j].From)
			}
			continue
		}
		x.slotOf[c] = int32(len(x.mask) / x.words)
		x.mask = append(x.mask, make([]uint64, x.words)...)
		x.rank = append(x.rank, make([]int32, x.words)...)
		mask := bitset.Set(x.mask[len(x.mask)-x.words:])
		rank := x.rank[len(x.rank)-x.words:]
		// Group the cell's transitions by first child, keeping
		// transition order within a group.
		byFirst = append(byFirst[:0], cell...)
		sort.SliceStable(byFirst, func(i, j int) bool {
			return a.trans[byFirst[i]].Children[0] < a.trans[byFirst[j]].Children[0]
		})
		for _, j := range byFirst {
			tr := a.trans[j]
			if q := tr.Children[0]; !mask.Has(q) {
				mask.Add(q)
				x.grpRec = append(x.grpRec, int32(len(x.rec)))
			}
			x.rec = append(x.rec, int32(tr.From))
			for _, ch := range tr.Children[1:] {
				x.rec = append(x.rec, int32(ch))
			}
		}
		g := int32(len(x.grpRec) - mask.Count())
		for w, word := range mask {
			rank[w] = g
			g += int32(bits.OnesCount64(word))
		}
	}
	x.grpRec = append(x.grpRec, int32(len(x.rec)))
}

// lookup returns the transitions with the given root symbol and arity.
func (x *accIndex) lookup(sym, arity int) []int32 {
	if sym < 0 || sym >= x.nsyms || arity > x.maxAr {
		return nil
	}
	return x.cells[sym*(x.maxAr+1)+arity]
}

// step is StepAccepting over the index.
func (x *accIndex) step(dst bitset.Set, sym int, kids []bitset.Set) {
	k := len(kids)
	if sym < 0 || sym >= x.nsyms || k > x.maxAr || x.slotOf[sym*(x.maxAr+1)+k] < 0 {
		dst.Clear()
		return
	}
	base := int(x.slotOf[sym*(x.maxAr+1)+k]) * x.words
	if k == 0 {
		copy(dst, x.leaf[base:base+x.words])
		return
	}
	dst.Clear()
	mask, rank := x.mask[base:base+x.words], x.rank[base:base+x.words]
	for w, word := range kids[0][:x.words] {
		m := mask[w]
		for word &= m; word != 0; word &= word - 1 {
			below := m & (word&-word - 1)
			g := rank[w] + int32(bits.OnesCount64(below))
			recs := x.rec[x.grpRec[g]:x.grpRec[g+1]]
		next:
			for p := 0; p < len(recs); p += k {
				from := int(recs[p])
				if dst.Has(from) {
					continue
				}
				for i := 1; i < k; i++ {
					if !kids[i].Has(int(recs[p+i])) {
						continue next
					}
				}
				dst.Add(from)
			}
		}
	}
}

// fromIndex is a CSR state → transition-indices lookup, rebuilt lazily
// on version change exactly like accIndex. Keeping it out of insert
// matters: the reduction pipeline materializes the same construction
// several times (translation, λ-elimination, trim), and an eager
// per-insert index pays two map appends per transition on automata
// whose index is consulted once, if ever.
type fromIndex struct {
	off   []int32 // off[q]..off[q+1]: slots of state q in idx
	idx   []int32 // transition indices grouped by From, insertion order
	built uint64  // automaton version at build time
}

func (a *NFTA) fromIdx() *fromIndex {
	if ix := a.from.Load(); ix != nil && ix.built == a.version {
		return ix
	}
	ix := &fromIndex{built: a.version}
	ix.off = make([]int32, a.numStates+1)
	for _, tr := range a.trans {
		ix.off[tr.From+1]++
	}
	for q := 0; q < a.numStates; q++ {
		ix.off[q+1] += ix.off[q]
	}
	ix.idx = make([]int32, len(a.trans))
	cur := append([]int32(nil), ix.off[:a.numStates]...)
	for j, tr := range a.trans {
		ix.idx[cur[tr.From]] = int32(j)
		cur[tr.From]++
	}
	a.from.Store(ix)
	return ix
}

// of returns the indices of the transitions out of state q.
func (x *fromIndex) of(q int) []int32 { return x.idx[x.off[q]:x.off[q+1]] }

type symArity struct{ sym, arity int }

// New returns an empty NFTA over a fresh alphabet. The initial state
// must be set with SetInitial.
func New() *NFTA {
	return NewWithSymbols(alphabet.New())
}

// NewWithSymbols returns an empty NFTA sharing an existing interner.
func NewWithSymbols(sym *alphabet.Interner) *NFTA {
	return &NFTA{
		Symbols: sym,
		initial: -1,
		seen:    make(map[string]bool),
	}
}

// newNoDedup returns an empty NFTA that skips transition deduplication.
// Only for constructions that never feed it a duplicate (from, sym,
// children) triple: a duplicate would be stored twice and double-count
// in the engines. Callers in this package: translations over
// duplicate-free sources, λ-elimination's final copy, Trim.
func newNoDedup(sym *alphabet.Interner) *NFTA {
	return &NFTA{
		Symbols: sym,
		initial: -1,
	}
}

// AddState allocates a new state.
func (a *NFTA) AddState() int {
	a.numStates++
	a.version++
	return a.numStates - 1
}

// NumStates returns |S|.
func (a *NFTA) NumStates() int { return a.numStates }

// SetInitial sets s_init.
func (a *NFTA) SetInitial(q int) {
	a.checkState(q)
	a.initial = q
	a.version++
}

// Initial returns s_init (-1 if unset).
func (a *NFTA) Initial() int { return a.initial }

func (a *NFTA) checkState(q int) {
	if q < 0 || q >= a.numStates {
		panic(fmt.Sprintf("nfta: state %d out of range [0,%d)", q, a.numStates))
	}
}

// AddTransition adds (from, sym, children) to Δ, interning the symbol
// name. Duplicates are ignored.
func (a *NFTA) AddTransition(from int, symbol string, children ...int) {
	a.AddTransitionSym(from, a.Symbols.Intern(symbol), children...)
}

// AddLambda adds a λ-transition (from, λ, children).
func (a *NFTA) AddLambda(from int, children ...int) {
	a.AddTransitionSym(from, Lambda, children...)
}

// AddTransitionSym adds a transition with an interned symbol ID (or
// Lambda). The children slice is copied.
func (a *NFTA) AddTransitionSym(from, sym int, children ...int) {
	a.insert(from, sym, children, true)
}

// AddTransitionShared is AddTransitionSym without the defensive copy:
// the automaton takes ownership of children, which the caller must not
// modify afterwards. For builders whose tuples come from an arena with
// the same lifetime as the automaton.
func (a *NFTA) AddTransitionShared(from, sym int, children []int) {
	a.insert(from, sym, children, false)
}

// grow reserves capacity for n more transitions. The construction
// pipeline materializes transition lists whose exact sizes are known
// (or tightly bounded) up front; reserving once avoids the append
// doubling that otherwise dominates allocation volume.
func (a *NFTA) grow(n int) {
	if cap(a.trans)-len(a.trans) < n {
		nt := make([]Transition, len(a.trans), len(a.trans)+n)
		copy(nt, a.trans)
		a.trans = nt
	}
}

func (a *NFTA) insert(from, sym int, children []int, copyChildren bool) {
	a.checkState(from)
	for _, c := range children {
		a.checkState(c)
	}
	if copyChildren {
		children = append([]int(nil), children...)
	}
	tr := Transition{From: from, Sym: sym, Children: children}
	if a.seen != nil {
		k := tr.key()
		if a.seen[k] {
			return
		}
		a.seen[k] = true
	}
	if sym == Lambda {
		a.numLambda++
	}
	a.trans = append(a.trans, tr)
	a.version++
}

// Transitions returns all transitions. The slice must not be modified.
func (a *NFTA) Transitions() []Transition { return a.trans }

// From returns the transitions out of state q.
func (a *NFTA) From(q int) []Transition {
	idx := a.fromIdx().of(q)
	out := make([]Transition, len(idx))
	for i, j := range idx {
		out[i] = a.trans[j]
	}
	return out
}

// NumTransitions returns |Δ|.
func (a *NFTA) NumTransitions() int { return len(a.trans) }

// Size returns the encoding size of the transition relation (the paper's
// |T|): one unit per tuple element.
func (a *NFTA) Size() int {
	n := 0
	for _, tr := range a.trans {
		n += 2 + len(tr.Children)
	}
	return n
}

// HasLambda reports whether any λ-transitions remain.
func (a *NFTA) HasLambda() bool { return a.numLambda > 0 }

// MaxArity returns the largest children-tuple length in Δ.
func (a *NFTA) MaxArity() int {
	k := 0
	for _, tr := range a.trans {
		if len(tr.Children) > k {
			k = len(tr.Children)
		}
	}
	return k
}

// AcceptingStates returns the set of states q such that the tree is
// accepted starting from q, computed by the standard bottom-up product
// check. The automaton must be λ-free.
func (a *NFTA) AcceptingStates(t *Tree) map[int]bool {
	if a.HasLambda() {
		panic("nfta: AcceptingStates on automaton with λ-transitions")
	}
	return a.acceptingStates(t)
}

func (a *NFTA) acceptingStates(t *Tree) map[int]bool {
	childAcc := make([]map[int]bool, len(t.Children))
	for i, c := range t.Children {
		childAcc[i] = a.acceptingStates(c)
	}
	acc := make(map[int]bool)
	for _, j := range a.accIdx().lookup(t.Sym, len(t.Children)) {
		tr := a.trans[j]
		if acc[tr.From] {
			continue
		}
		ok := true
		for i, q := range tr.Children {
			if !childAcc[i][q] {
				ok = false
				break
			}
		}
		if ok {
			acc[tr.From] = true
		}
	}
	return acc
}

// StepAccepting sets dst to the accepting-state set of a node labelled
// sym whose i-th child has accepting-state set kids[i]: bit q is set
// iff the node's tree is accepted starting from q. It is one level of
// the bottom-up run that AcceptingStates performs, so composing it
// over a tree from the leaves up yields AcceptingStates of the tree. A
// leaf's set is a constant per symbol; an inner node's set comes from
// the transitions whose first child is in kids[0], so the cost follows
// the children's sets rather than the number of transitions on (sym,
// arity). dst and every kids[i] must have capacity for NumStates bits.
// The automaton must be λ-free.
func (a *NFTA) StepAccepting(dst bitset.Set, sym int, kids []bitset.Set) {
	if a.numLambda > 0 {
		panic("nfta: StepAccepting on automaton with λ-transitions")
	}
	a.accIdx().step(dst, sym, kids)
}

// Accepts reports whether the tree is in L(T).
func (a *NFTA) Accepts(t *Tree) bool {
	if a.initial < 0 {
		panic("nfta: initial state unset")
	}
	return a.AcceptingStates(t)[a.initial]
}

// AcceptsFrom reports whether the tree is accepted starting from q.
func (a *NFTA) AcceptsFrom(q int, t *Tree) bool {
	return a.AcceptingStates(t)[q]
}

// AcceptsForestFrom reports whether the forest (an ordered list of
// trees) is accepted by the state tuple: tree i from states[i].
func (a *NFTA) AcceptsForestFrom(states []int, forest []*Tree) bool {
	if len(states) != len(forest) {
		return false
	}
	for i, t := range forest {
		if !a.AcceptsFrom(states[i], t) {
			return false
		}
	}
	return true
}

// String renders the automaton for debugging.
func (a *NFTA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NFTA states=%d init=%d\n", a.numStates, a.initial)
	for _, tr := range a.trans {
		sym := "λ"
		if tr.Sym != Lambda {
			sym = a.Symbols.Name(tr.Sym)
		}
		children := make([]string, len(tr.Children))
		for i, c := range tr.Children {
			children[i] = strconv.Itoa(c)
		}
		fmt.Fprintf(&b, "  %d --%s--> (%s)\n", tr.From, sym, strings.Join(children, ","))
	}
	return b.String()
}
