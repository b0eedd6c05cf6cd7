package nfta

import (
	"math/big"
	"math/rand"
	"testing"

	"pqe/internal/alphabet"
	"pqe/internal/bitset"
)

// buildChainAuto accepts unary chains a-a-…-a-b (k ≥ 0 a's then a b
// leaf).
func buildChainAuto() *NFTA {
	a := New()
	q := a.AddState()
	a.AddTransition(q, "a", q)
	a.AddTransition(q, "b")
	a.SetInitial(q)
	return a
}

func TestTreeBasics(t *testing.T) {
	in := alphabet.New()
	sa, sb := in.Intern("a"), in.Intern("b")
	tr := Node(sa, Leaf(sb), Node(sa, Leaf(sb)))
	if tr.Size() != 4 {
		t.Errorf("Size = %d", tr.Size())
	}
	if tr.Pretty(in) != "a(b,a(b))" {
		t.Errorf("Pretty = %q", tr.Pretty(in))
	}
	if !tr.Equal(tr.Clone()) {
		t.Error("clone not equal")
	}
	if tr.Key() == Leaf(sa).Key() {
		t.Error("distinct trees share a key")
	}
	p := Path([]int{sa, sa}, Leaf(sb))
	if p.Pretty(in) != "a(a(b))" {
		t.Errorf("Path = %q", p.Pretty(in))
	}
	want := []int{sa, sb, sa, sb}
	got := tr.Labels()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Labels = %v", got)
			break
		}
	}
}

func TestAcceptsChain(t *testing.T) {
	a := buildChainAuto()
	sa, _ := a.Symbols.Lookup("a")
	sb, _ := a.Symbols.Lookup("b")
	if !a.Accepts(Leaf(sb)) {
		t.Error("b leaf rejected")
	}
	if !a.Accepts(Path([]int{sa, sa}, Leaf(sb))) {
		t.Error("a(a(b)) rejected")
	}
	if a.Accepts(Leaf(sa)) {
		t.Error("a leaf accepted")
	}
	if a.Accepts(Node(sb, Leaf(sb))) {
		t.Error("b with child accepted")
	}
}

func TestAcceptsBinary(t *testing.T) {
	// Full binary trees: internal "f" nodes with two children, "x"
	// leaves.
	a := New()
	q := a.AddState()
	a.AddTransition(q, "f", q, q)
	a.AddTransition(q, "x")
	a.SetInitial(q)
	f, _ := a.Symbols.Lookup("f")
	x, _ := a.Symbols.Lookup("x")
	good := Node(f, Leaf(x), Node(f, Leaf(x), Leaf(x)))
	if !a.Accepts(good) {
		t.Error("valid full binary tree rejected")
	}
	bad := Node(f, Leaf(x))
	if a.Accepts(bad) {
		t.Error("unary f node accepted")
	}
	// Sizes of full binary trees are odd: 1, 3, 5, …
	if got := ExactCount(a, 2); got.Sign() != 0 {
		t.Errorf("count at even size = %v", got)
	}
	// Number of full binary trees with n leaves is the Catalan number;
	// size 7 = 4 leaves + 3 internal → C₃ = 5.
	if got := ExactCount(a, 7); got.Int64() != 5 {
		t.Errorf("ExactCount(7) = %v, want 5 (Catalan)", got)
	}
}

func TestAcceptingStatesMultiple(t *testing.T) {
	a := New()
	q0 := a.AddState()
	q1 := a.AddState()
	a.AddTransition(q0, "x")
	a.AddTransition(q1, "x")
	a.SetInitial(q0)
	x, _ := a.Symbols.Lookup("x")
	acc := a.AcceptingStates(Leaf(x))
	if !acc[q0] || !acc[q1] {
		t.Errorf("AcceptingStates = %v", acc)
	}
	if !a.AcceptsFrom(q1, Leaf(x)) {
		t.Error("AcceptsFrom(q1) = false")
	}
	if !a.AcceptsForestFrom([]int{q0, q1}, []*Tree{Leaf(x), Leaf(x)}) {
		t.Error("forest acceptance failed")
	}
	if a.AcceptsForestFrom([]int{q0}, []*Tree{Leaf(x), Leaf(x)}) {
		t.Error("length-mismatched forest accepted")
	}
}

func TestEliminateLambdaUnary(t *testing.T) {
	// q0 --λ--> q1, q1 accepts leaf "x". After elimination q0 accepts it.
	a := New()
	q0 := a.AddState()
	q1 := a.AddState()
	a.AddLambda(q0, q1)
	a.AddTransition(q1, "x")
	a.SetInitial(q0)
	out, err := EliminateLambda(a)
	if err != nil {
		t.Fatal(err)
	}
	if out.HasLambda() {
		t.Error("λ-transitions remain")
	}
	x, _ := out.Symbols.Lookup("x")
	if !out.Accepts(Leaf(x)) {
		t.Error("leaf rejected after λ-elimination")
	}
}

func TestEliminateLambdaChain(t *testing.T) {
	// λ-chain q0 → q1 → q2 with the real transition at the end.
	a := New()
	q0 := a.AddState()
	q1 := a.AddState()
	q2 := a.AddState()
	a.AddLambda(q0, q1)
	a.AddLambda(q1, q2)
	a.AddTransition(q2, "x")
	a.SetInitial(q0)
	out, err := EliminateLambda(a)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := out.Symbols.Lookup("x")
	if !out.Accepts(Leaf(x)) {
		t.Error("leaf rejected after chained λ-elimination")
	}
}

func TestEliminateLambdaForestSplice(t *testing.T) {
	// root --f--> (m); m --λ--> (l, l); l accepts leaf x.
	// Language after elimination: f(x, x).
	a := New()
	root := a.AddState()
	m := a.AddState()
	l := a.AddState()
	a.AddTransition(root, "f", m)
	a.AddLambda(m, l, l)
	a.AddTransition(l, "x")
	a.SetInitial(root)
	out, err := EliminateLambda(a)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := out.Symbols.Lookup("f")
	x, _ := out.Symbols.Lookup("x")
	if !out.Accepts(Node(f, Leaf(x), Leaf(x))) {
		t.Errorf("f(x,x) rejected:\n%s", out)
	}
	if out.Accepts(Node(f, Leaf(x))) {
		t.Error("f(x) accepted")
	}
}

func TestEliminateLambdaEmptyForest(t *testing.T) {
	// root --f--> (m, l); m --λ--> (); l accepts x. Language: f(x) with
	// the m child vanishing.
	a := New()
	root := a.AddState()
	m := a.AddState()
	l := a.AddState()
	a.AddTransition(root, "f", m, l)
	a.AddLambda(m)
	a.AddTransition(l, "x")
	a.SetInitial(root)
	out, err := EliminateLambda(a)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := out.Symbols.Lookup("f")
	x, _ := out.Symbols.Lookup("x")
	if !out.Accepts(Node(f, Leaf(x))) {
		t.Errorf("f(x) rejected:\n%s", out)
	}
}

func TestEliminateLambdaInitialForestError(t *testing.T) {
	a := New()
	q0 := a.AddState()
	q1 := a.AddState()
	a.AddLambda(q0, q1, q1)
	a.AddTransition(q1, "x")
	a.SetInitial(q0)
	if _, err := EliminateLambda(a); err == nil {
		t.Error("initial-state forest λ not rejected")
	}
}

func TestAugmentedTranslationChain(t *testing.T) {
	// One transition annotated "a b c" from root to a leaf tuple:
	// language = the chain a(b(c)).
	in := alphabet.New()
	aug := NewAugmented(in)
	root := aug.AddState()
	aug.SetInitial(root)
	label := []AugSymbol{Plain(in.Intern("a")), Plain(in.Intern("b")), Plain(in.Intern("c"))}
	aug.AddTransition(root, label)
	out, err := aug.Translate()
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := out.Symbols.Lookup("a")
	sb, _ := out.Symbols.Lookup("b")
	sc, _ := out.Symbols.Lookup("c")
	want := Path([]int{sa, sb, sc})
	if !out.Accepts(want) {
		t.Errorf("a(b(c)) rejected:\n%s", out)
	}
	if got := ExactCount(out, 3); got.Int64() != 1 {
		t.Errorf("language size = %v, want 1", got)
	}
}

func TestAugmentedTranslationOptional(t *testing.T) {
	// Annotation "a? b?": 4 chains of length 2 over {a,¬a}×{b,¬b}.
	in := alphabet.New()
	aug := NewAugmented(in)
	root := aug.AddState()
	aug.SetInitial(root)
	label := []AugSymbol{Opt(in.Intern("a")), Opt(in.Intern("b"))}
	aug.AddTransition(root, label)
	out, err := aug.Translate()
	if err != nil {
		t.Fatal(err)
	}
	if got := ExactCount(out, 2); got.Int64() != 4 {
		t.Errorf("language size = %v, want 4", got)
	}
	na, ok := out.Symbols.Lookup(NegName("a"))
	if !ok {
		t.Fatal("negated symbol not interned")
	}
	sb, _ := out.Symbols.Lookup("b")
	if !out.Accepts(Path([]int{na, sb})) {
		t.Error("¬a(b) rejected")
	}
}

func TestAugmentedLambdaAnnotation(t *testing.T) {
	// root --"r"--> (m); m --λ--> (l1, l2); leaves annotated "x" and "y".
	in := alphabet.New()
	aug := NewAugmented(in)
	root := aug.AddState()
	m := aug.AddState()
	l1 := aug.AddState()
	l2 := aug.AddState()
	aug.SetInitial(root)
	aug.AddTransition(root, []AugSymbol{Plain(in.Intern("r"))}, m)
	aug.AddTransition(m, nil, l1, l2) // λ annotation
	aug.AddTransition(l1, []AugSymbol{Plain(in.Intern("x"))})
	aug.AddTransition(l2, []AugSymbol{Plain(in.Intern("y"))})
	out, err := aug.Translate()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := out.Symbols.Lookup("r")
	x, _ := out.Symbols.Lookup("x")
	y, _ := out.Symbols.Lookup("y")
	if !out.Accepts(Node(r, Leaf(x), Leaf(y))) {
		t.Errorf("r(x,y) rejected:\n%s", out)
	}
	if got := ExactCount(out, 3); got.Int64() != 1 {
		t.Errorf("language size = %v, want 1", got)
	}
}

func TestIsNegName(t *testing.T) {
	if base, ok := IsNegName(NegName("R(a,b)")); !ok || base != "R(a,b)" {
		t.Errorf("IsNegName round trip = %q, %v", base, ok)
	}
	if _, ok := IsNegName("R(a,b)"); ok {
		t.Error("plain name reported negated")
	}
}

func TestDigitsFor(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := DigitsFor(big.NewInt(c.n)); got != c.want {
			t.Errorf("DigitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// multChainCount builds a single-transition multiplier automaton
// (root --x,mult,digits--> leaf tuple) and counts the accepted trees of
// size 1+digits.
func multChainCount(t *testing.T, mult int64, digits int) int64 {
	t.Helper()
	in := alphabet.New()
	ma := NewMult(in)
	root := ma.AddState()
	ma.SetInitial(root)
	if err := ma.AddTransition(root, in.Intern("x"), big.NewInt(mult), digits); err != nil {
		t.Fatal(err)
	}
	out, err := ma.Translate()
	if err != nil {
		t.Fatal(err)
	}
	return ExactCount(out, 1+digits).Int64()
}

func TestMultiplierCounts(t *testing.T) {
	for mult := int64(1); mult <= 16; mult++ {
		minDigits := DigitsFor(big.NewInt(mult))
		for digits := minDigits; digits <= minDigits+2; digits++ {
			if got := multChainCount(t, mult, digits); got != mult {
				t.Errorf("mult=%d digits=%d: %d trees accepted", mult, digits, got)
			}
		}
	}
}

func TestMultiplierZeroDropsTransition(t *testing.T) {
	if got := multChainCount(t, 0, 2); got != 0 {
		t.Errorf("mult=0: %d trees accepted", got)
	}
}

func TestMultiplierValidation(t *testing.T) {
	in := alphabet.New()
	ma := NewMult(in)
	root := ma.AddState()
	ma.SetInitial(root)
	if err := ma.AddTransition(root, in.Intern("x"), big.NewInt(5), 2); err == nil {
		t.Error("5 > 2^2 accepted")
	}
	if err := ma.AddTransition(root, in.Intern("x"), big.NewInt(2), 0); err == nil {
		t.Error("mult 2 with 0 digits accepted")
	}
	if err := ma.AddTransition(root, in.Intern("x"), big.NewInt(-1), 1); err == nil {
		t.Error("negative multiplier accepted")
	}
}

func TestMultiplierPreservesStructure(t *testing.T) {
	// Automaton accepting f(x,x) with multiplier 3 (2 digits) on the
	// root transition: 3 trees of size 3 + 2 = 5, each of the form
	// f(d₁(d₂(x,x)))? No — the digit path hangs below f, then the
	// children. Verify the count and that every accepted tree contains
	// both leaves.
	in := alphabet.New()
	ma := NewMult(in)
	root := ma.AddState()
	leaf := ma.AddState()
	ma.SetInitial(root)
	if err := ma.AddTransition(root, in.Intern("f"), big.NewInt(3), 2, leaf, leaf); err != nil {
		t.Fatal(err)
	}
	if err := ma.AddTransition(leaf, in.Intern("x"), big.NewInt(1), 0); err != nil {
		t.Fatal(err)
	}
	out, err := ma.Translate()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	EnumerateTrees(out, 5, func(tr *Tree) bool {
		count++
		xs := 0
		x, _ := out.Symbols.Lookup("x")
		for _, l := range tr.Labels() {
			if l == x {
				xs++
			}
		}
		if xs != 2 {
			t.Errorf("accepted tree %s has %d x-leaves", tr.Pretty(in), xs)
		}
		return true
	})
	if count != 3 {
		t.Errorf("accepted %d trees, want 3", count)
	}
}

func TestSizeMeasures(t *testing.T) {
	a := buildChainAuto()
	if a.Size() != 5 { // (q,a,(q)): 3 + (q,b,()): 2
		t.Errorf("Size = %d", a.Size())
	}
	if a.NumTransitions() != 2 {
		t.Errorf("NumTransitions = %d", a.NumTransitions())
	}
	if a.MaxArity() != 1 {
		t.Errorf("MaxArity = %d", a.MaxArity())
	}
}

// multChainCountUnary mirrors multChainCount with the unary gadget.
func multChainCountUnary(t *testing.T, mult int64) int64 {
	t.Helper()
	in := alphabet.New()
	ma := NewMult(in)
	root := ma.AddState()
	ma.SetInitial(root)
	if err := ma.AddTransition(root, in.Intern("x"), big.NewInt(mult), DigitsFor(big.NewInt(mult))); err != nil {
		t.Fatal(err)
	}
	out, err := ma.TranslateUnary()
	if err != nil {
		t.Fatal(err)
	}
	return ExactCount(out, 1+UnaryDigits(mult)).Int64()
}

func TestUnaryMultiplierCounts(t *testing.T) {
	for mult := int64(1); mult <= 12; mult++ {
		if got := multChainCountUnary(t, mult); got != mult {
			t.Errorf("unary mult=%d: %d trees accepted", mult, got)
		}
	}
}

func TestUnaryVsBinaryStateCounts(t *testing.T) {
	// The ablation's point: unary states grow linearly, binary
	// logarithmically.
	in := alphabet.New()
	ma := NewMult(in)
	root := ma.AddState()
	ma.SetInitial(root)
	mult := big.NewInt(1000)
	if err := ma.AddTransition(root, in.Intern("x"), mult, DigitsFor(mult)); err != nil {
		t.Fatal(err)
	}
	bin, err := ma.Translate()
	if err != nil {
		t.Fatal(err)
	}
	una, err := ma.TranslateUnary()
	if err != nil {
		t.Fatal(err)
	}
	if bin.NumStates() >= 1+2*11 {
		t.Errorf("binary gadget used %d states", bin.NumStates())
	}
	if una.NumStates() < 1000 {
		t.Errorf("unary gadget used only %d states", una.NumStates())
	}
}

func TestUnaryDigits(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {5, 4}} {
		if got := UnaryDigits(c.n); got != c.want {
			t.Errorf("UnaryDigits(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTrimPreservesLanguage(t *testing.T) {
	// Automaton with a dead branch: state d is reachable but
	// unproductive (no leaf transitions).
	a := New()
	q := a.AddState()
	d := a.AddState()
	a.AddTransition(q, "a", q)
	a.AddTransition(q, "a", d)
	a.AddTransition(d, "a", d) // never bottoms out
	a.AddTransition(q, "b")
	a.SetInitial(q)
	trimmed := a.Trim()
	if trimmed.NumStates() >= a.NumStates() {
		t.Errorf("Trim kept %d of %d states", trimmed.NumStates(), a.NumStates())
	}
	for n := 1; n <= 6; n++ {
		if got, want := ExactCount(trimmed, n), ExactCount(a, n); got.Cmp(want) != 0 {
			t.Errorf("size %d: trimmed count %v != %v", n, got, want)
		}
	}
}

func TestTrimRemovesMultiplierDeadStates(t *testing.T) {
	in := alphabet.New()
	ma := NewMult(in)
	root := ma.AddState()
	ma.SetInitial(root)
	mult := big.NewInt(7)
	if err := ma.AddTransition(root, in.Intern("x"), mult, DigitsFor(mult)); err != nil {
		t.Fatal(err)
	}
	out, err := ma.Translate()
	if err != nil {
		t.Fatal(err)
	}
	trimmed := out.Trim()
	if trimmed.NumStates() >= out.NumStates() {
		t.Errorf("Trim kept %d of %d states (comparator has a dead free-track head)",
			trimmed.NumStates(), out.NumStates())
	}
	size := 1 + DigitsFor(mult)
	if got, want := ExactCount(trimmed, size), ExactCount(out, size); got.Cmp(want) != 0 {
		t.Errorf("trimmed count %v != %v", got, want)
	}
}

func TestTrimEmptyLanguage(t *testing.T) {
	a := New()
	q := a.AddState()
	a.AddTransition(q, "f", q)
	a.SetInitial(q)
	trimmed := a.Trim()
	if trimmed.Initial() < 0 {
		t.Fatal("trimmed automaton lost its initial state")
	}
	if got := ExactCount(trimmed, 3); got.Sign() != 0 {
		t.Errorf("empty language count %v", got)
	}
}

func TestExactCountDetAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		a := randomSmallNFTA(rng)
		for n := 1; n <= 5; n++ {
			want := ExactCount(a, n)
			got := ExactCountDet(a, n)
			if got.Cmp(want) != 0 {
				t.Fatalf("trial %d size %d: det %v != enum %v\n%s", trial, n, got, want, a)
			}
		}
	}
}

// randomSmallNFTA builds a random λ-free automaton for oracle
// cross-validation.
func randomSmallNFTA(rng *rand.Rand) *NFTA {
	a := New()
	numStates := 2 + rng.Intn(3)
	for i := 0; i < numStates; i++ {
		a.AddState()
	}
	syms := []string{"f", "g", "x"}
	for i := 0; i < 2+rng.Intn(7); i++ {
		arity := rng.Intn(3)
		children := make([]int, arity)
		for j := range children {
			children[j] = rng.Intn(numStates)
		}
		a.AddTransition(rng.Intn(numStates), syms[rng.Intn(len(syms))], children...)
	}
	a.AddTransition(rng.Intn(numStates), "x")
	a.SetInitial(0)
	return a
}

func TestExactCountDetLargeGadgets(t *testing.T) {
	// Verify the unary multiplier gadget count at sizes the
	// enumeration oracle cannot reach.
	for _, mult := range []int64{50, 200} {
		in := alphabet.New()
		ma := NewMult(in)
		root := ma.AddState()
		ma.SetInitial(root)
		if err := ma.AddTransition(root, in.Intern("x"), big.NewInt(mult), DigitsFor(big.NewInt(mult))); err != nil {
			t.Fatal(err)
		}
		una, err := ma.TranslateUnary()
		if err != nil {
			t.Fatal(err)
		}
		if got := ExactCountDet(una, 1+UnaryDigits(mult)); got.Int64() != mult {
			t.Errorf("unary mult=%d: det count %v", mult, got)
		}
		bin, err := ma.Translate()
		if err != nil {
			t.Fatal(err)
		}
		if got := ExactCountDet(bin, 1+DigitsFor(big.NewInt(mult))); got.Int64() != mult {
			t.Errorf("binary mult=%d: det count %v", mult, got)
		}
	}
}

// randomLabelledTree draws a random tree over f/2, g/1, x/0 with the
// given interner, bounded in depth.
func randomLabelledTree(rng *rand.Rand, in *alphabet.Interner, depth int) *Tree {
	f, g, x := in.Intern("f"), in.Intern("g"), in.Intern("x")
	if depth == 0 {
		return Leaf(x)
	}
	switch rng.Intn(3) {
	case 0:
		return Node(f, randomLabelledTree(rng, in, depth-1), randomLabelledTree(rng, in, depth-1))
	case 1:
		return Node(g, randomLabelledTree(rng, in, depth-1))
	default:
		return Leaf(x)
	}
}

// randomStepNFTA builds a λ-free automaton for the acceptance-step
// property test: arities 0–3 over f, g, h and x, a symbol z with no
// transitions at all, and a hub state that is the first child of many
// transitions on every (symbol, arity).
func randomStepNFTA(rng *rand.Rand, numStates int) *NFTA {
	a := New()
	for i := 0; i < numStates; i++ {
		a.AddState()
	}
	syms := []string{"f", "g", "h", "x"}
	a.Symbols.Intern("z")
	hub := rng.Intn(numStates)
	for i := 0; i < 3*numStates+24; i++ {
		children := make([]int, rng.Intn(4))
		for j := range children {
			children[j] = rng.Intn(numStates)
		}
		if len(children) > 0 && i%3 == 0 {
			children[0] = hub
		}
		a.AddTransition(rng.Intn(numStates), syms[rng.Intn(len(syms))], children...)
	}
	for i := 0; i < 1+numStates/3; i++ {
		a.AddTransition(rng.Intn(numStates), syms[rng.Intn(len(syms))])
	}
	a.SetInitial(0)
	return a
}

// randomRunTree draws a tree that mostly follows transitions out of q
// (leaf transitions at depth 0), so that acceptance sets are often
// non-empty, and otherwise draws a random label and arity (possibly one
// without transitions).
func randomRunTree(rng *rand.Rand, a *NFTA, q, depth int) *Tree {
	out := a.From(q)
	if depth == 0 {
		var leaves []Transition
		for _, tr := range out {
			if len(tr.Children) == 0 {
				leaves = append(leaves, tr)
			}
		}
		out = leaves
	}
	if len(out) == 0 || rng.Intn(8) == 0 {
		k := 0
		if depth > 0 {
			k = rng.Intn(4)
		}
		sym := rng.Intn(a.Symbols.Size())
		t := &Tree{Sym: sym}
		for i := 0; i < k; i++ {
			t.Children = append(t.Children, randomRunTree(rng, a, rng.Intn(a.NumStates()), depth-1))
		}
		return t
	}
	tr := out[rng.Intn(len(out))]
	t := &Tree{Sym: tr.Sym}
	for _, c := range tr.Children {
		t.Children = append(t.Children, randomRunTree(rng, a, c, depth-1))
	}
	return t
}

// stepSets composes StepAccepting bottom-up over t and checks the set
// of every node against the map-based reference.
func stepSets(t *testing.T, a *NFTA, tree *Tree) bitset.Set {
	kids := make([]bitset.Set, len(tree.Children))
	for i, c := range tree.Children {
		kids[i] = stepSets(t, a, c)
	}
	dst := bitset.New(a.NumStates())
	for i := range dst {
		dst[i] = ^uint64(0) // the step must overwrite stale contents
	}
	a.StepAccepting(dst, tree.Sym, kids)
	want := a.AcceptingStates(tree)
	for q := 0; q < a.NumStates(); q++ {
		if dst.Has(q) != want[q] {
			t.Fatalf("state %d: step %v, reference %v\ntree %s\n%s", q, dst.Has(q), want[q], tree, a)
		}
	}
	if dst.Count() != len(want) {
		t.Fatalf("step set has %d bits, reference %d\ntree %s", dst.Count(), len(want), tree)
	}
	return dst
}

func TestStepAcceptingMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nonEmpty := 0
	for trial := 0; trial < 60; trial++ {
		numStates := []int{2, 5, 64, 70, 150}[trial%5]
		a := randomStepNFTA(rng, numStates)
		for i := 0; i < 10; i++ {
			tree := randomRunTree(rng, a, rng.Intn(numStates), 1+rng.Intn(5))
			if !stepSets(t, a, tree).Empty() {
				nonEmpty++
			}
		}
	}
	if nonEmpty < 200 {
		t.Errorf("only %d of 600 trees had a non-empty accepting set", nonEmpty)
	}
	// The small fixed-alphabet automata of the other oracle tests too.
	for trial := 0; trial < 50; trial++ {
		a := randomSmallNFTA(rng)
		for i := 0; i < 10; i++ {
			stepSets(t, a, randomLabelledTree(rng, a.Symbols, 1+rng.Intn(4)))
		}
	}
}

func TestStepAcceptingPanicsOnLambda(t *testing.T) {
	a := New()
	q := a.AddState()
	r := a.AddState()
	a.AddLambda(q, r)
	a.AddTransition(r, "x")
	a.SetInitial(q)
	defer func() {
		if recover() == nil {
			t.Error("no panic on λ-transitions")
		}
	}()
	x, _ := a.Symbols.Lookup("x")
	a.StepAccepting(bitset.New(a.NumStates()), x, nil)
}
