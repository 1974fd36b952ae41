package datalog

import (
	"context"
	"testing"

	"repro/internal/ssd"
)

func chain(n int) *ssd.Graph {
	g := ssd.New()
	cur := g.Root()
	for i := 0; i < n; i++ {
		cur = g.AddLeaf(cur, ssd.Sym("next"))
	}
	return g
}

func fig1(t *testing.T) *ssd.Graph {
	t.Helper()
	g, err := ssd.Parse(`
	{Entry: #e1{Movie: {Title: "Casablanca",
	                    Cast: {1: "Bogart", 2: "Bacall"},
	                    Director: {"Curtiz"}}},
	 Entry: #e2{Movie: {Title: "Play it again, Sam",
	                    Cast: {Credit: {Actors: {"Allen"}}},
	                    Director: {"Allen"},
	                    References: #e1}}}`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runProg(t *testing.T, g *ssd.Graph, src string, mode Mode) map[string]*Relation {
	t.Helper()
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := NewEngine(g).Run(nil, prog, mode)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestReachabilityChain(t *testing.T) {
	g := chain(10)
	src := `
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).`
	for _, mode := range []Mode{Naive, SemiNaive} {
		res := runProg(t, g, src, mode)
		if got := res["reach"].Len(); got != 11 {
			t.Errorf("mode %v: reach = %d, want 11", mode, got)
		}
	}
}

func TestNaiveSemiNaiveAgree(t *testing.T) {
	g := fig1(t)
	src := `
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).
		pair(X, Y) :- reach(X), edge(X, _, Y).
		stringedge(L) :- reach(X), edge(X, L, _), isstring(L).`
	a := runProg(t, g, src, Naive)
	b := runProg(t, g, src, SemiNaive)
	for pred := range a {
		if a[pred].Len() != b[pred].Len() {
			t.Errorf("%s: naive %d vs semi-naive %d tuples", pred, a[pred].Len(), b[pred].Len())
		}
		for _, tup := range a[pred].Tuples() {
			if !b[pred].Has(tup) {
				t.Errorf("%s: tuple %s missing from semi-naive result", pred, tup)
			}
		}
	}
}

func TestSemiNaiveDoesLessWork(t *testing.T) {
	g := chain(60)
	src := `
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).`
	prog := MustParseProgram(src)
	en := NewEngine(g)
	if _, err := en.Run(nil, prog, Naive); err != nil {
		t.Fatal(err)
	}
	naiveJoins := en.Joins
	es := NewEngine(g)
	if _, err := es.Run(nil, prog, SemiNaive); err != nil {
		t.Fatal(err)
	}
	semiJoins := es.Joins
	if semiJoins >= naiveJoins {
		t.Errorf("semi-naive joins (%d) should be < naive joins (%d) on a long chain", semiJoins, naiveJoins)
	}
}

func TestCycleTermination(t *testing.T) {
	g := ssd.MustParse(`#r{a: {b: #r}}`)
	src := `
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).`
	res := runProg(t, g, src, SemiNaive)
	if res["reach"].Len() != 2 {
		t.Errorf("reach over 2-cycle = %d, want 2", res["reach"].Len())
	}
}

func TestSameGeneration(t *testing.T) {
	// Classic recursive query: nodes at the same depth below the root of a
	// full binary tree.
	g := ssd.New()
	l1 := g.AddLeaf(g.Root(), ssd.Sym("c"))
	r1 := g.AddLeaf(g.Root(), ssd.Sym("c"))
	g.AddLeaf(l1, ssd.Sym("c"))
	g.AddLeaf(r1, ssd.Sym("c"))
	src := `
		sg(X, X) :- root(X).
		sg(X, Y) :- sg(A, B), edge(A, _, X), edge(B, _, Y).`
	res := runProg(t, g, src, SemiNaive)
	// (root,root) + 4 pairs at depth 1 + 4 pairs at depth 2.
	if res["sg"].Len() != 9 {
		t.Errorf("sg = %d, want 9", res["sg"].Len())
	}
}

func TestLabelsAndBuiltins(t *testing.T) {
	g := fig1(t)
	src := `
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).
		bigint(L) :- reach(X), edge(X, L, _), isint(L), gt(L, 1).
		allen(X) :- reach(X), edge(X, "Allen", _).
		titled(L) :- reach(X), edge(X, 'Title', N), edge(N, L, _), isstring(L).`
	res := runProg(t, g, src, SemiNaive)
	if res["bigint"].Len() != 1 { // the Cast index 2
		t.Errorf("bigint = %d, want 1", res["bigint"].Len())
	}
	if res["allen"].Len() != 2 { // Actors object and Director object
		t.Errorf("allen = %d, want 2", res["allen"].Len())
	}
	if res["titled"].Len() != 2 {
		t.Errorf("titled = %d, want 2", res["titled"].Len())
	}
}

func TestLikeBuiltin(t *testing.T) {
	g := fig1(t)
	src := `
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).
		act(L) :- reach(X), edge(X, L, _), issymbol(L), like(L, "Act%").`
	res := runProg(t, g, src, SemiNaive)
	if res["act"].Len() != 1 { // Actors
		t.Errorf("act = %d, want 1", res["act"].Len())
	}
}

func TestStratifiedNegation(t *testing.T) {
	g := fig1(t)
	// Movies that do NOT reference anything.
	src := `
		movie(M) :- root(R), edge(R, 'Entry', E), edge(E, 'Movie', M).
		referencing(M) :- movie(M), edge(M, 'References', _).
		standalone(M) :- movie(M), not referencing(M).`
	res := runProg(t, g, src, SemiNaive)
	if res["movie"].Len() != 2 {
		t.Fatalf("movie = %d", res["movie"].Len())
	}
	if res["referencing"].Len() != 1 {
		t.Errorf("referencing = %d, want 1", res["referencing"].Len())
	}
	if res["standalone"].Len() != 1 {
		t.Errorf("standalone = %d, want 1", res["standalone"].Len())
	}
}

func TestNonStratifiable(t *testing.T) {
	src := `
		p(X) :- edge(X, _, _), not q(X).
		q(X) :- edge(X, _, _), not p(X).`
	prog := MustParseProgram(src)
	if _, err := NewEngine(chain(2)).Run(nil, prog, SemiNaive); err == nil {
		t.Error("negation through recursion must be rejected")
	}
}

func TestUnsafeRules(t *testing.T) {
	cases := []string{
		`p(X) :- edge(_, _, _).`,                                  // head var unbound
		`p(X) :- edge(X, _, _), not q(Y). q(X) :- edge(X, _, _).`, // neg var unbound
		`p(X) :- isint(X).`,                                       // builtin-only binding
	}
	for _, src := range cases {
		prog, err := ParseProgram(src)
		if err != nil {
			t.Errorf("parse error for %q: %v", src, err)
			continue
		}
		if _, err := NewEngine(chain(2)).Run(nil, prog, SemiNaive); err == nil {
			t.Errorf("unsafe program %q accepted", src)
		}
	}
}

func TestBodyReorderingBuiltinFirst(t *testing.T) {
	// A builtin written before its variable is bound must still work.
	g := fig1(t)
	src := `
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).
		ints(L) :- isint(L), reach(X), edge(X, L, _).`
	res := runProg(t, g, src, SemiNaive)
	if res["ints"].Len() != 2 { // 1 and 2
		t.Errorf("ints = %d, want 2", res["ints"].Len())
	}
}

func TestFacts(t *testing.T) {
	g := chain(1)
	src := `
		color("red").
		color("blue").
		colored(X, C) :- edge(_, _, X), color(C).`
	res := runProg(t, g, src, SemiNaive)
	if res["color"].Len() != 2 {
		t.Errorf("color = %d", res["color"].Len())
	}
	if res["colored"].Len() != 2 { // 1 node × 2 colors
		t.Errorf("colored = %d", res["colored"].Len())
	}
}

func TestArityAndUnknownPredErrors(t *testing.T) {
	for _, src := range []string{
		`p(X) :- edge(X, _).`,                              // wrong arity
		`p(X) :- mystery(X).`,                              // unknown predicate
		`edge(X, X, X) :- edge(X, _, _).`,                  // redefines EDB
		`p(X) :- edge(X, _, _). p(X, Y) :- edge(X, _, Y).`, // inconsistent arity
	} {
		prog, err := ParseProgram(src)
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := NewEngine(chain(2)).Run(nil, prog, SemiNaive); err == nil {
			t.Errorf("program %q accepted", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`p(X)`,         // missing period
		`p() .`,        // empty args
		`p(X) :- .`,    // empty body
		`:- p(X).`,     // missing head
		`p(X) :- q(X)`, // missing period
		`p("unterminated) .`,
	} {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q) should fail", src)
		}
	}
}

func TestRootConstant(t *testing.T) {
	g := chain(3)
	src := `first(Y) :- edge(root, _, Y).`
	res := runProg(t, g, src, SemiNaive)
	if res["first"].Len() != 1 {
		t.Errorf("first = %d, want 1", res["first"].Len())
	}
}

func TestProgramPrint(t *testing.T) {
	src := `p(X, "s") :- edge(X, 'Title', _), not q(X), isint(X).
q(X) :- edge(X, _, _).`
	prog := MustParseProgram(src)
	printed := prog.String()
	re, err := ParseProgram(printed)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", printed, err)
	}
	if len(re.Rules) != len(prog.Rules) {
		t.Error("rule count changed in round trip")
	}
}

// Property: naive and semi-naive agree on random graphs for recursive
// reachability and pair programs.
func TestModesAgreeOnRandomGraphsProperty(t *testing.T) {
	src := `
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).
		pair(X, L) :- reach(X), edge(X, L, _), isdata(L).`
	prog := MustParseProgram(src)
	for seed := int64(0); seed < 25; seed++ {
		g := randomDlGraph(seed, 15, 35)
		a, err := NewEngine(g).Run(nil, prog, Naive)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewEngine(g).Run(nil, prog, SemiNaive)
		if err != nil {
			t.Fatal(err)
		}
		for pred := range a {
			if a[pred].Len() != b[pred].Len() {
				t.Fatalf("seed %d: %s: %d vs %d", seed, pred, a[pred].Len(), b[pred].Len())
			}
			for _, tup := range a[pred].Tuples() {
				if !b[pred].Has(tup) {
					t.Fatalf("seed %d: %s: missing %s", seed, pred, tup)
				}
			}
		}
	}
}

func randomDlGraph(seed int64, nodes, edges int) *ssd.Graph {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	g := ssd.New()
	ids := []ssd.NodeID{g.Root()}
	for i := 1; i < nodes; i++ {
		ids = append(ids, g.AddNode())
	}
	labels := []ssd.Label{ssd.Sym("a"), ssd.Sym("b"), ssd.Int(3), ssd.Str("s"), ssd.Float(0.5)}
	for i := 0; i < edges; i++ {
		g.AddEdge(ids[next(len(ids))], labels[next(len(labels))], ids[next(len(ids))])
	}
	return g
}

// Relation indexes must stay consistent as tuples are added after a lookup
// built the index.
func TestRelationIndexConsistencyAfterGrowth(t *testing.T) {
	r := NewRelation(2)
	v := func(i int) Value { return LabelValue(ssd.Int(int64(i))) }
	r.Add(Tuple{v(1), v(10)})
	// Force index construction on position 0.
	if got := len(r.lookup(0, v(1))); got != 1 {
		t.Fatalf("lookup = %d", got)
	}
	r.Add(Tuple{v(1), v(20)})
	r.Add(Tuple{v(2), v(30)})
	if got := len(r.lookup(0, v(1))); got != 2 {
		t.Errorf("index not maintained on growth: %d", got)
	}
	if got := len(r.lookup(0, v(2))); got != 1 {
		t.Errorf("new key missing: %d", got)
	}
}

// TestRunCancelled: a done context stops Run inside a round, within about
// one poll stride of tuple matches rather than at the fixpoint, in both
// modes, and Run reports the context's error.
func TestRunCancelled(t *testing.T) {
	prog := MustParseProgram(`tc(X, Y) :- edge(X, _, Y). tc(X, Z) :- tc(X, Y), edge(Y, _, Z).`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for mode, n := range map[Mode]int{Naive: 60, SemiNaive: 200} {
		full := NewEngine(chain(n))
		if _, err := full.Run(nil, prog, mode); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(chain(n))
		if _, err := e.Run(ctx, prog, mode); err != context.Canceled {
			t.Fatalf("mode %d: Run err = %v, want context.Canceled", mode, err)
		}
		if e.Joins > 2048 || e.Joins*10 > full.Joins {
			t.Errorf("mode %d: cancelled run made %d joins, the full run %d", mode, e.Joins, full.Joins)
		}
	}
}
