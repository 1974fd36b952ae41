package ssd

import (
	"strings"
	"testing"
)

func TestParseSimple(t *testing.T) {
	g, err := Parse(`{Movie: {Title: "Casablanca", Year: 1942, Rating: 8.5, Classic: true}}`)
	if err != nil {
		t.Fatal(err)
	}
	movie := g.LookupFirst(g.Root(), Sym("Movie"))
	if movie == InvalidNode {
		t.Fatal("Movie edge missing")
	}
	title := g.LookupFirst(movie, Sym("Title"))
	if title == InvalidNode {
		t.Fatal("Title edge missing")
	}
	if g.LookupFirst(title, Str("Casablanca")) == InvalidNode {
		t.Fatal("string literal not desugared to data edge")
	}
	year := g.LookupFirst(movie, Sym("Year"))
	if g.LookupFirst(year, Int(1942)) == InvalidNode {
		t.Fatal("int literal missing")
	}
	rating := g.LookupFirst(movie, Sym("Rating"))
	if g.LookupFirst(rating, Float(8.5)) == InvalidNode {
		t.Fatal("float literal missing")
	}
	classic := g.LookupFirst(movie, Sym("Classic"))
	if g.LookupFirst(classic, Bool(true)) == InvalidNode {
		t.Fatal("bool literal missing")
	}
}

func TestParseBareLabels(t *testing.T) {
	g := MustParse(`{a, b: {}, c: 3}`)
	if g.OutDegree(g.Root()) != 3 {
		t.Fatalf("degree = %d", g.OutDegree(g.Root()))
	}
	a := g.LookupFirst(g.Root(), Sym("a"))
	if !g.IsLeaf(a) {
		t.Error("bare label should lead to empty tree")
	}
}

func TestParseEmpty(t *testing.T) {
	g := MustParse(`{}`)
	if g.NumEdges() != 0 {
		t.Fatalf("empty tree has %d edges", g.NumEdges())
	}
}

func TestParseSharing(t *testing.T) {
	g := MustParse(`{a: #x{v: 1}, b: #x}`)
	a := g.LookupFirst(g.Root(), Sym("a"))
	b := g.LookupFirst(g.Root(), Sym("b"))
	if a != b {
		t.Fatalf("shared tag nodes differ: %d vs %d", a, b)
	}
}

func TestParseForwardReference(t *testing.T) {
	g := MustParse(`{a: #x, b: #x{v: 1}}`)
	a := g.LookupFirst(g.Root(), Sym("a"))
	b := g.LookupFirst(g.Root(), Sym("b"))
	if a != b {
		t.Fatalf("forward reference not resolved: %d vs %d", a, b)
	}
	if g.LookupFirst(a, Sym("v")) == InvalidNode {
		t.Error("referenced node lost its edges")
	}
}

func TestParseCycle(t *testing.T) {
	g := MustParse(`#root{Movie: {References: #root}}`)
	movie := g.LookupFirst(g.Root(), Sym("Movie"))
	refs := g.LookupFirst(movie, Sym("References"))
	if refs != g.Root() {
		t.Fatalf("cycle broken: References leads to %d, want root %d", refs, g.Root())
	}
}

func TestParseOID(t *testing.T) {
	g := MustParse(`{a: &o7{v: 1}, b: &o7}`)
	a := g.LookupFirst(g.Root(), Sym("a"))
	if id, ok := g.OIDOf(a); !ok || id != "o7" {
		t.Fatalf("OID = %q, %v", id, ok)
	}
	b := g.LookupFirst(g.Root(), Sym("b"))
	if a != b {
		t.Error("OID reference should share the node")
	}
}

func TestParseComments(t *testing.T) {
	g := MustParse("{\n// a comment\na: 1, // trailing\nb: 2\n}")
	if g.OutDegree(g.Root()) != 2 {
		t.Fatalf("degree = %d", g.OutDegree(g.Root()))
	}
}

func TestParseStringEscapes(t *testing.T) {
	g := MustParse(`{s: "a\"b\\c\ndA"}`)
	s := g.LookupFirst(g.Root(), Sym("s"))
	want := "a\"b\\c\ndA"
	// find the data edge
	es := g.Out(s)
	if len(es) != 1 {
		t.Fatalf("edges = %v", es)
	}
	if got, _ := es[0].Label.Text(); got != want {
		t.Fatalf("escaped string = %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`{a: }`,
		`{a: 1`,
		`{a 1}`,
		`{a: #}`,
		`{a: #x} junk`,
		`{a: #undefined}`,
		`{s: "unterminated}`,
		`{n: 1e}`, // malformed exponent is tolerated by scanner but must not crash
		`{a: #x{}, b: #x{}}`,
		`@`,
		``,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil && src != `{n: 1e}` {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{
		`{Movie: {Title: "Casablanca", Year: 1942}}`,
		`{a: {b: {c: 1}}, d: "x"}`,
		`{a, b, c}`,
		`#r{next: #r}`,
		`{x: #s{v: 1}, y: #s}`,
		`{n: -5, f: 2.5, t: true, f2: false}`,
		`{s: "a\rb\x00c\u200bd\a\U000e0001", big: 1e+21}`, // every escape Format writes
	}
	for _, src := range srcs {
		g := MustParse(src)
		text := FormatRoot(g)
		g2, err := Parse(text)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v", text, err)
			continue
		}
		text2 := FormatRoot(g2)
		if text != text2 {
			t.Errorf("round trip unstable:\n first: %s\nsecond: %s", text, text2)
		}
	}
}

func TestFormatDeterministic(t *testing.T) {
	g := MustParse(`{z: 1, a: 2, m: 3}`)
	s1 := FormatRoot(g)
	s2 := FormatRoot(g)
	if s1 != s2 {
		t.Fatalf("nondeterministic format: %s vs %s", s1, s2)
	}
	if !strings.Contains(s1, "a") || strings.Index(s1, "a") > strings.Index(s1, "z") {
		t.Errorf("edges not label-sorted: %s", s1)
	}
}

func TestFormatCycleTag(t *testing.T) {
	g := MustParse(`#r{next: #r}`)
	text := FormatRoot(g)
	if !strings.Contains(text, "#t0") {
		t.Errorf("cycle should be rendered with a tag: %s", text)
	}
}

func TestFormatOID(t *testing.T) {
	g := New()
	n := g.AddLeaf(g.Root(), Sym("a"))
	g.SetOID(n, "obj1")
	text := FormatRoot(g)
	if !strings.Contains(text, "&obj1") {
		t.Errorf("oid missing from output: %s", text)
	}
	g2 := MustParse(text)
	a := g2.LookupFirst(g2.Root(), Sym("a"))
	if id, ok := g2.OIDOf(a); !ok || id != "obj1" {
		t.Errorf("oid not round-tripped: %q %v", id, ok)
	}
}

func TestParseTreeIntoExistingGraph(t *testing.T) {
	g := New()
	n, err := ParseTree(g, `{a: 1}`)
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(g.Root(), Sym("sub"), n)
	sub := g.LookupFirst(g.Root(), Sym("sub"))
	if g.LookupFirst(sub, Sym("a")) == InvalidNode {
		t.Error("parsed subtree not attached")
	}
}

func TestParseLabel(t *testing.T) {
	cases := map[string]Label{
		"Movie":  Sym("Movie"),
		`"x y"`:  Str("x y"),
		"42":     Int(42),
		"-1":     Int(-1),
		"2.5":    Float(2.5),
		"1e3":    Float(1000),
		"true":   Bool(true),
		"false":  Bool(false),
		"_under": Sym("_under"),
		"a-b":    Sym("a-b"),
	}
	for src, want := range cases {
		got, err := ParseLabel(src)
		if err != nil {
			t.Errorf("ParseLabel(%q): %v", src, err)
			continue
		}
		if got != want {
			t.Errorf("ParseLabel(%q) = %v, want %v", src, got, want)
		}
	}
	if _, err := ParseLabel("a b"); err == nil {
		t.Error("trailing input should error")
	}
	if _, err := ParseLabel("{"); err == nil {
		t.Error("non-label should error")
	}
}

func TestParseFigure1(t *testing.T) {
	// The paper's Figure 1, transcribed in the text syntax. The References /
	// "Is referenced in" pair forms the cross-entry links.
	src := `
	{Entry: #e1{Movie: {Title: "Casablanca",
	                    Cast: {1: "Bogart", 2: "Bacall"},
	                    Director: {"Curtiz"}}},
	 Entry: #e2{Movie: {Title: "Play it again, Sam",
	                    Cast: {Credit: {Actors: {"Allen"}}},
	                    Director: {"Allen"},
	                    References: #e1}},
	 Entry: {TV-Show: {Title: "Bogart retrospective",
	                   Cast: {Special-Guests: {"Bacall"}},
	                   Episode: 1.2e6}}}
	`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	entries := g.Lookup(g.Root(), Sym("Entry"))
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	// The second entry references the first.
	var refTarget NodeID = InvalidNode
	for _, e := range entries {
		if m := g.LookupFirst(e, Sym("Movie")); m != InvalidNode {
			if r := g.LookupFirst(m, Sym("References")); r != InvalidNode {
				refTarget = r
			}
		}
	}
	if refTarget != entries[0] {
		t.Errorf("References should point at the first entry (%d), got %d", entries[0], refTarget)
	}
}
