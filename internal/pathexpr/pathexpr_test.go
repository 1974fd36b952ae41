package pathexpr

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ssd"
)

func figure1(t *testing.T) *ssd.Graph {
	t.Helper()
	g, err := ssd.Parse(`
	{Entry: #e1{Movie: {Title: "Casablanca",
	                    Cast: {1: "Bogart", 2: "Bacall"},
	                    Director: {"Curtiz"}}},
	 Entry: #e2{Movie: {Title: "Play it again, Sam",
	                    Cast: {Credit: {Actors: {"Allen"}}},
	                    Director: {"Allen"},
	                    References: #e1}},
	 Entry: {TV-Show: {Title: "Bogart retrospective",
	                   Cast: {Special-Guests: {"Bacall"}},
	                   Episode: 1200000}}}`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func evalStr(t *testing.T, g *ssd.Graph, expr string) []ssd.NodeID {
	t.Helper()
	au := MustCompile(expr)
	return au.Eval(g, g.Root())
}

func TestParseAndPrint(t *testing.T) {
	cases := []string{
		"Entry.Movie.Title",
		"Entry.(Movie|TV-Show).Title",
		"_*",
		"Movie.(!Movie)*",
		"a.b?.c+",
		`like "act%"`,
		"> 65536",
		"isint",
		`"Allen"`,
	}
	for _, src := range cases {
		e, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		// Printed form must re-parse to an expression with identical print.
		printed := e.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Errorf("re-parse of %q (from %q): %v", printed, src, err)
			continue
		}
		if e2.String() != printed {
			t.Errorf("print not stable: %q -> %q", printed, e2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"", "(a", "a..b", "a |", "like 5", "a)(", "> ", "!"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestEvalSimplePath(t *testing.T) {
	g := figure1(t)
	titles := evalStr(t, g, "Entry.Movie.Title")
	if len(titles) != 2 {
		t.Fatalf("Entry.Movie.Title matched %d nodes, want 2", len(titles))
	}
	all := evalStr(t, g, "Entry.(Movie|TV-Show).Title")
	if len(all) != 3 {
		t.Fatalf("alternation matched %d, want 3", len(all))
	}
}

func TestEvalWildcardFindsString(t *testing.T) {
	g := figure1(t)
	// §1.3: "Where in the database is the string Casablanca to be found?"
	hits := evalStr(t, g, `_*."Casablanca"`)
	if len(hits) != 1 {
		t.Fatalf("Casablanca found at %d nodes, want 1", len(hits))
	}
}

func TestEvalIntRange(t *testing.T) {
	g := figure1(t)
	// §1.3: "Are there integers in the database greater than 2^16?"
	hits := evalStr(t, g, "_*.(> 65536)")
	if len(hits) != 1 { // Episode 1200000
		t.Fatalf("integers > 2^16: %d hits, want 1", len(hits))
	}
	none := evalStr(t, g, "_*.(> 99999999)")
	if len(none) != 0 {
		t.Fatalf("unexpected hits %v", none)
	}
}

func TestEvalLike(t *testing.T) {
	g := figure1(t)
	// §1.3: "objects with an attribute name that starts with act".
	hits := evalStr(t, g, `_*.(like "Act%")`)
	if len(hits) != 1 { // Actors
		t.Fatalf("like Act%%: %d hits, want 1", len(hits))
	}
}

func TestEvalNegation(t *testing.T) {
	g := figure1(t)
	// The paper's example: find "Allen" below a Movie edge without passing
	// a second Movie edge. Without the guard, the References edge would let
	// paths wander into the referenced entry's Movie subtree.
	withGuard := evalStr(t, g, `Entry.Movie.(!Movie)*."Allen"`)
	if len(withGuard) != 2 { // Cast.Credit.Actors."Allen" and Director."Allen"
		t.Fatalf("guarded Allen search: %d hits, want 2", len(withGuard))
	}
	// Sanity: the guard matters — "Bogart" is NOT reachable from the second
	// entry's Movie without crossing the References→Movie boundary.
	acrossMovies := evalStr(t, g, `Entry.Movie.References.Movie.(!Movie)*."Bogart"`)
	if len(acrossMovies) != 1 {
		t.Fatalf("cross-reference search: %d hits, want 1", len(acrossMovies))
	}
}

func TestEvalCycleTermination(t *testing.T) {
	g := ssd.MustParse(`#r{a: #r, b: 1}`)
	hits := evalStr(t, g, "a*.b")
	if len(hits) != 1 {
		t.Fatalf("a*.b over cycle: %d hits, want 1", len(hits))
	}
	// _* over a cyclic graph must terminate and return everything reachable.
	acc, _ := g.Accessible()
	all := evalStr(t, acc, "_*")
	if len(all) != acc.NumNodes() {
		t.Fatalf("_* returned %d nodes, want %d", len(all), acc.NumNodes())
	}
}

func TestEvalNFAMatchesEval(t *testing.T) {
	g := figure1(t)
	exprs := []string{
		"Entry.Movie.Title",
		"_*",
		`_*."Bacall"`,
		"Entry._.Cast._*",
		"Entry.(Movie|TV-Show).(Cast|Director)._*.isstring",
		"Movie.(!Movie)*",
	}
	for _, src := range exprs {
		au1 := MustCompile(src)
		au2 := MustCompile(src)
		a := au1.Eval(g, g.Root())
		b := au2.EvalNFA(g, g.Root())
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Eval=%v EvalNFA=%v", src, a, b)
		}
	}
}

func TestEmptySeqMatchesStartOnly(t *testing.T) {
	g := figure1(t)
	au := Compile(Seq{})
	got := au.Eval(g, g.Root())
	if len(got) != 1 || got[0] != g.Root() {
		t.Fatalf("empty path = %v, want root only", got)
	}
}

func TestPlusRequiresOne(t *testing.T) {
	g := ssd.MustParse(`{a: {a: {}}}`)
	if got := evalStr(t, g, "a+"); len(got) != 2 {
		t.Fatalf("a+ = %v, want 2 nodes", got)
	}
	if got := evalStr(t, g, "a*"); len(got) != 3 {
		t.Fatalf("a* = %v, want 3 nodes (incl. start)", got)
	}
	if got := evalStr(t, g, "a?"); len(got) != 2 {
		t.Fatalf("a? = %v, want 2 nodes", got)
	}
}

func TestMatches(t *testing.T) {
	g := figure1(t)
	matches := func(src string) bool {
		tr := MustCompile(src).NewTraversal(g)
		tr.Reset(g.Root())
		_, ok := tr.Next()
		return ok
	}
	if !matches(`_*."Bogart"`) {
		t.Error("Bogart should match")
	}
	if matches(`_*."Welles"`) {
		t.Error("Welles should not match")
	}
}

func TestEvalWithPaths(t *testing.T) {
	g := figure1(t)
	au := MustCompile(`_*."Casablanca"`)
	paths := au.EvalWithPaths(g, g.Root())
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	for _, p := range paths {
		want := []ssd.Label{ssd.Sym("Entry"), ssd.Sym("Movie"), ssd.Sym("Title"), ssd.Str("Casablanca")}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("witness = %v, want %v", p, want)
		}
	}
}

func TestTypePreds(t *testing.T) {
	g := ssd.MustParse(`{a: 1, b: "s", c: 2.5, d: true, e: {f: 1}}`)
	counts := map[string]int{
		"_.isint":    1,
		"_.isstring": 1,
		"_.isfloat":  1,
		"_.isbool":   1,
		"_.isdata":   4,
		"_.issymbol": 1, // e→f
	}
	for expr, want := range counts {
		if got := len(evalStr(t, g, expr)); got != want {
			t.Errorf("%s: %d hits, want %d", expr, got, want)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"act%", "actors", true},
		{"act%", "act", true},
		{"act%", "Actors", false},
		{"%allen%", "woody allen jr", true},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "abc", true},
		{"a%b%c", "acb", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"%", "anything", true},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pat, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestCmpOps(t *testing.T) {
	i5, i7 := ssd.Int(5), ssd.Int(7)
	if !OpLT.Apply(i5, i7) || OpLT.Apply(i7, i5) {
		t.Error("OpLT wrong")
	}
	if !OpGE.Apply(i7, i5) || !OpGE.Apply(i7, i7) {
		t.Error("OpGE wrong")
	}
	if !OpNE.Apply(i5, ssd.Str("5")) {
		t.Error("cross-kind != should be true")
	}
	if OpLT.Apply(i5, ssd.Str("9")) {
		t.Error("cross-kind < must be false")
	}
	if !OpLT.Apply(ssd.Str("a"), ssd.Str("b")) {
		t.Error("string < wrong")
	}
	if !OpLE.Apply(ssd.Int(2), ssd.Float(2.0)) {
		t.Error("numeric overloading in <= wrong")
	}
}

// TestCmpOpsAcrossNumericKinds: ordered comparisons between an int and a
// float compare values only, so a numerically equal pair is <= and >= but
// neither < nor >, in either order.
func TestCmpOpsAcrossNumericKinds(t *testing.T) {
	const p53 = 1 << 53
	ops := []CmpOp{OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE}
	cases := []struct {
		a, b ssd.Label
		want [6]bool // <, <=, >, >=, =, !=
	}{
		{ssd.Int(1), ssd.Float(1), [6]bool{false, true, false, true, true, false}},
		{ssd.Float(1), ssd.Int(1), [6]bool{false, true, false, true, true, false}},
		{ssd.Int(1), ssd.Float(1.5), [6]bool{true, true, false, false, false, true}},
		{ssd.Float(0.5), ssd.Int(1), [6]bool{true, true, false, false, false, true}},
		{ssd.Int(p53 + 1), ssd.Float(p53), [6]bool{false, false, true, true, false, true}},
		{ssd.Float(p53), ssd.Int(p53), [6]bool{false, true, false, true, true, false}},
	}
	for _, c := range cases {
		for i, op := range ops {
			if got := op.Apply(c.a, c.b); got != c.want[i] {
				t.Errorf("%v %s %v = %v, want %v", c.a, op, c.b, got, c.want[i])
			}
		}
	}
}

// Property: Eval and EvalNFA agree on random graphs and a fixed expression
// battery.
func TestEvalAgreementProperty(t *testing.T) {
	exprs := []*struct{ src string }{
		{"a*.b"}, {"(a|b)*"}, {"_._"}, {"a.(!a)*"}, {"_*.isint"},
	}
	f := func(seed int64) bool {
		g := randGraph(seed)
		for _, e := range exprs {
			a := MustCompile(e.src).Eval(g, g.Root())
			b := MustCompile(e.src).EvalNFA(g, g.Root())
			if !reflect.DeepEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randGraph(seed int64) *ssd.Graph {
	g := ssd.New()
	ids := []ssd.NodeID{g.Root()}
	x := uint64(seed)*2654435761 + 1
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	for i := 0; i < 15; i++ {
		ids = append(ids, g.AddNode())
	}
	labels := []ssd.Label{ssd.Sym("a"), ssd.Sym("b"), ssd.Int(3), ssd.Str("s")}
	for i := 0; i < 40; i++ {
		g.AddEdge(ids[next(len(ids))], labels[next(len(labels))], ids[next(len(ids))])
	}
	return g
}
