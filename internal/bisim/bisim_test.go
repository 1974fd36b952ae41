package bisim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ssd"
)

func parse(t *testing.T, src string) *ssd.Graph {
	t.Helper()
	g, err := ssd.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return g
}

func TestEqualBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{`{}`, `{}`, true},
		{`{a: 1}`, `{a: 1}`, true},
		{`{a: 1}`, `{a: 2}`, false},
		{`{a: 1, b: 2}`, `{b: 2, a: 1}`, true}, // set semantics: order irrelevant
		{`{a: 1, a: 1}`, `{a: 1}`, true},       // duplicates collapse
		{`{a: {b: 1}}`, `{a: {b: 1}}`, true},
		{`{a: {b: 1}}`, `{a: {c: 1}}`, false},
		{`{a: 1}`, `{a: 1.0}`, true}, // numeric overloading
		{`{a: 1}`, `{a: "1"}`, false},
		{`{a}`, `{b}`, false},
		{`{a}`, `{}`, false},
	}
	for _, c := range cases {
		got := Equal(parse(t, c.a), parse(t, c.b))
		if got != c.want {
			t.Errorf("Equal(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestEqualIntsBeyond2to53 checks that edge order does not decide equality
// when two ints round to the same float.
func TestEqualIntsBeyond2to53(t *testing.T) {
	a := parse(t, `{x: {9007199254740993, 9007199254740992}}`)
	b := parse(t, `{x: {9007199254740992, 9007199254740993}}`)
	if !Equal(a, b) {
		t.Error("the same set of ints in another order is not Equal")
	}
	if fa, fb := ssd.FormatRoot(Canonicalize(a)), ssd.FormatRoot(Canonicalize(b)); fa != fb {
		t.Errorf("canonical forms differ:\n a: %s\n b: %s", fa, fb)
	}
	if Equal(parse(t, `{9007199254740993}`), parse(t, `{9007199254740992.0}`)) {
		t.Error("2⁵³+1 is Equal to the float 2⁵³")
	}
}

func TestEqualCycles(t *testing.T) {
	// An infinite unary a-chain equals a self-loop: classic bisimulation.
	loop := parse(t, `#r{a: #r}`)
	twoLoop := parse(t, `#r{a: {a: #r}}`)
	if !Equal(loop, twoLoop) {
		t.Error("1-cycle and 2-cycle of the same label should be bisimilar")
	}
	loopB := parse(t, `#r{b: #r}`)
	if Equal(loop, loopB) {
		t.Error("cycles over different labels must differ")
	}
	finite := parse(t, `{a: {a: {a: {}}}}`)
	if Equal(loop, finite) {
		t.Error("finite chain is not bisimilar to a cycle")
	}
}

func TestEqualIgnoresOIDs(t *testing.T) {
	a := parse(t, `{x: &o1{v: 1}}`)
	b := parse(t, `{x: &o2{v: 1}}`)
	if !Equal(a, b) {
		t.Error("value equality must ignore object identity")
	}
}

func TestBisimilarWithinOneGraph(t *testing.T) {
	g := parse(t, `{a: #x{v: 1}, b: {v: 1}, c: {v: 2}}`)
	ax := g.LookupFirst(g.Root(), ssd.Sym("a"))
	bx := g.LookupFirst(g.Root(), ssd.Sym("b"))
	cx := g.LookupFirst(g.Root(), ssd.Sym("c"))
	if !Bisimilar(g, ax, g, bx) {
		t.Error("a and b subtrees should be bisimilar")
	}
	if Bisimilar(g, ax, g, cx) {
		t.Error("a and c subtrees should differ")
	}
}

func TestClassesAgreeNaiveIncremental(t *testing.T) {
	srcs := []string{
		`{}`,
		`{a: 1, b: {c: {d: 1}}, e: {c: {d: 1}}}`,
		`#r{a: #r, b: {a: #r}}`,
		`{x: {y: {z: "deep"}}, x2: {y: {z: "deep"}}, x3: {y: {z: "other"}}}`,
	}
	for _, src := range srcs {
		g := parse(t, src)
		a := Classes(g.Clone())
		b := ClassesNaive(g.Clone())
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ", src)
		}
		// Same partition (both normalized by first appearance).
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: node %d: incremental class %d, naive %d", src, i, a[i], b[i])
			}
		}
	}
}

func TestClassesRandomAgree(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 60)
		a := Classes(g.Clone())
		b := ClassesNaive(g.Clone())
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestArenaSizedForEveryNode pins refine's arena bound: after refine, a
// round that signs every node with the widest keys and classes, the flag
// set, and floats that canonical turns into 11-byte ints, fits in the arena
// without growing it.
func TestArenaSizedForEveryNode(t *testing.T) {
	g := ssd.New()
	for i := 0; i < 300; i++ {
		g.AddNode()
	}
	labels := []ssd.Label{ssd.Float(-1 << 63), ssd.Float(-9.2e18), ssd.Float(0.5),
		ssd.Str(strings.Repeat("x", 200)), ssd.Sym("a"), ssd.Int(math.MinInt64), ssd.Bool(true)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		g.AddEdge(ssd.NodeID(rng.Intn(g.NumNodes())), labels[rng.Intn(len(labels))], ssd.NodeID(rng.Intn(g.NumNodes())))
	}
	s := signer{g: g}
	refine(g, true, &s)
	before := cap(s.arena)
	widest := make([]int, g.NumNodes()) // distinct classes, all as wide as n-1
	for v := range widest {
		widest[v] = len(widest) - 1 - v/2
	}
	s.reset()
	for v := range g.NumNodes() {
		s.sign(ssd.NodeID(v), len(widest)-1, 1, widest, nil)
	}
	if _, _, bound := scan(g, false); len(s.arena) > bound || cap(s.arena) != before {
		t.Fatalf("round used %d bytes of a %d-byte bound; arena capacity %d → %d", len(s.arena), bound, before, cap(s.arena))
	}
}

func randomGraph(seed int64, nodes, edges int) *ssd.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := ssd.New()
	ids := []ssd.NodeID{g.Root()}
	for i := 1; i < nodes; i++ {
		ids = append(ids, g.AddNode())
	}
	labels := []ssd.Label{ssd.Sym("a"), ssd.Sym("b"), ssd.Int(1), ssd.Str("s")}
	for i := 0; i < edges; i++ {
		g.AddEdge(ids[rng.Intn(len(ids))], labels[rng.Intn(len(labels))], ids[rng.Intn(len(ids))])
	}
	return g
}

func TestMinimize(t *testing.T) {
	g := parse(t, `{a: {v: 1}, b: {v: 1}, c: {v: 1}}`)
	// v-subtrees are all bisimilar but a, b, c edges differ: quotient keeps
	// 3 root edges into one shared class.
	m := Canonicalize(g)
	if got := m.NumNodes(); got != 4 { // root, shared {v:...}, shared leaf of v→1, shared {} leaf
		t.Fatalf("minimized nodes = %d, want 4 (got %s)", got, ssd.FormatRoot(m))
	}
	if !Equal(g, m) {
		t.Error("Canonicalize changed the value")
	}
}

func TestMinimizeCycle(t *testing.T) {
	g := parse(t, `#r{a: {a: {a: #r}}}`)
	m := Canonicalize(g)
	if m.NumNodes() != 1 || m.NumEdges() != 1 {
		t.Fatalf("cycle should minimize to a self-loop, got %d nodes %d edges", m.NumNodes(), m.NumEdges())
	}
	if !Equal(g, m) {
		t.Error("Canonicalize changed the value")
	}
}

func TestMinimizeIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 40)
		m := Canonicalize(g)
		m2 := Canonicalize(m)
		return m.NumNodes() == m2.NumNodes() && m.NumEdges() == m2.NumEdges() && Equal(m, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNumClasses(t *testing.T) {
	g := parse(t, `{a: 1, b: 2}`)
	cls := Classes(g)
	k := NumClasses(cls)
	if k < 2 {
		t.Fatalf("NumClasses = %d", k)
	}
}

func TestSimulationExact(t *testing.T) {
	data := parse(t, `{Movie: {Title: "Casablanca"}}`)
	pattern := parse(t, `{Movie: {Title: "Casablanca", Year: 1942}}`)
	// data has no Year edge, so every data edge is covered by pattern: data
	// is simulated by pattern (simulation allows the schema to be looser).
	if !Simulates(data, data.Root(), pattern, pattern.Root(), ExactMatch) {
		t.Error("data should be simulated by superset pattern")
	}
	// The reverse fails: pattern's Year edge has no counterpart in data.
	if Simulates(pattern, pattern.Root(), data, data.Root(), ExactMatch) {
		t.Error("pattern with extra edge should not be simulated by data")
	}
}

func TestSimulationCycles(t *testing.T) {
	loop := parse(t, `#r{a: #r}`)
	chain := parse(t, `{a: {a: {}}}`)
	// Finite chain is simulated by the loop...
	if !Simulates(chain, chain.Root(), loop, loop.Root(), ExactMatch) {
		t.Error("finite chain should be simulated by a-loop")
	}
	// ...but the loop is not simulated by the finite chain.
	if Simulates(loop, loop.Root(), chain, chain.Root(), ExactMatch) {
		t.Error("infinite behaviour cannot be simulated by finite chain")
	}
}

func TestSimulationCustomMatch(t *testing.T) {
	data := parse(t, `{Movie: 1, Actor: 2}`)
	// Two wildcard levels: one for the symbol edges, one for the value
	// edges their literal children desugar to.
	schema := parse(t, `{any: {any: {}}}`)
	wildcard := func(d, p ssd.Label) bool {
		s, _ := p.Symbol()
		return s == "any"
	}
	if !Simulates(data, data.Root(), schema, schema.Root(), wildcard) {
		t.Error("wildcard schema should simulate the two-level data")
	}
}

func TestRelationCount(t *testing.T) {
	a := parse(t, `{}`)
	b := parse(t, `{}`)
	r := Simulation(a, b, ExactMatch)
	// Both graphs: root plus zero other nodes → every pair trivially holds
	// for leaves.
	if r.Count() == 0 {
		t.Error("leaf-leaf pair should be in the simulation")
	}
	if !r.Has(a.Root(), b.Root()) {
		t.Error("empty tree should simulate empty tree")
	}
}

func TestBisimilarImpliesMutualSimulationProperty(t *testing.T) {
	f := func(seed int64) bool {
		g1 := randomGraph(seed, 12, 20)
		g2 := randomGraph(seed+1000, 12, 20)
		if Equal(g1, g2) {
			return Simulates(g1, g1.Root(), g2, g2.Root(), ExactMatch) &&
				Simulates(g2, g2.Root(), g1, g1.Root(), ExactMatch)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSelfBisimilarProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 15, 30)
		return Equal(g, g.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalizeByteIdentical(t *testing.T) {
	// The same value built in different orders (and with different sharing)
	// must canonicalize to byte-identical text.
	a := parse(t, `{Movie: {Title: {"A"}}, Movie: {Title: {"B"}}}`)
	b := parse(t, `{Movie: {Title: {"B"}}, Movie: {Title: {"A"}}}`)
	ca, cb := Canonicalize(a), Canonicalize(b)
	fa, fb := ssd.FormatRoot(ca), ssd.FormatRoot(cb)
	if fa != fb {
		t.Errorf("canonical forms differ:\n a: %s\n b: %s", fa, fb)
	}
	if !Equal(ca, a) {
		t.Error("canonicalization changed the value")
	}
}

func TestCanonicalizeCycle(t *testing.T) {
	a := parse(t, `#r{next: #r, tag: "loop", alt: {x: 1}}`)
	b := parse(t, `#s{alt: {x: 1}, tag: "loop", next: #s}`)
	if got, want := ssd.FormatRoot(Canonicalize(a)), ssd.FormatRoot(Canonicalize(b)); got != want {
		t.Errorf("cyclic canonical forms differ:\n a: %s\n b: %s", got, want)
	}
}

func TestCanonicalizeRandomAgree(t *testing.T) {
	// Shuffling edge insertion order never changes the canonical text.
	for trial := 0; trial < 30; trial++ {
		g1 := randomGraph(int64(trial), 12, 20)
		g2 := g1.Clone()
		// Rebuild g2 with permuted node ids: graft into a fresh graph.
		h := ssd.New()
		h.SetRoot(h.Graft(g2, g2.Root()))
		if ssd.FormatRoot(Canonicalize(g1)) != ssd.FormatRoot(Canonicalize(h)) {
			t.Fatalf("trial %d: canonical forms differ", trial)
		}
	}
}
