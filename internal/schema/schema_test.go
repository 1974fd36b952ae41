package schema

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

const movieSchemaSrc = `
{Entry: #e{Movie: {Title: isstring,
                   Cast: {isint: isstring, Credit: {Actors: {isstring}}},
                   Director: {isstring},
                   References: #e},
           TV-Show: {Title: isstring,
                     Cast: {Special-Guests: {isstring}},
                     Episode: isint}}}`

func movieData(t *testing.T) *ssd.Graph {
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

func TestConformsMovieDB(t *testing.T) {
	s := MustParse(movieSchemaSrc)
	data := movieData(t)
	if !s.Conforms(data) {
		t.Fatal("figure-1 data should conform to the movie schema")
	}
}

func TestConformsRejects(t *testing.T) {
	s := MustParse(movieSchemaSrc)
	bad := ssd.MustParse(`{Entry: {Movie: {Budget: 1000000}}}`)
	if s.Conforms(bad) {
		t.Error("Budget edge is not in the schema: must not conform")
	}
	badType := ssd.MustParse(`{Entry: {Movie: {Title: 42}}}`)
	if s.Conforms(badType) {
		t.Error("int Title violates isstring")
	}
}

func TestConformsLooseness(t *testing.T) {
	// Schemas place loose constraints (§1.1, ACeDB): data may omit edges.
	s := MustParse(movieSchemaSrc)
	partial := ssd.MustParse(`{Entry: {Movie: {Title: "Just a title"}}}`)
	if !s.Conforms(partial) {
		t.Error("partial data should conform (simulation is one-way)")
	}
	empty := ssd.MustParse(`{}`)
	if !s.Conforms(empty) {
		t.Error("empty database conforms to everything")
	}
}

func TestConformsCycle(t *testing.T) {
	s := MustParse(movieSchemaSrc)
	// Two movies referencing each other: the schema's References self-loop
	// must absorb the data cycle.
	data := ssd.MustParse(`
	{Entry: #a{Movie: {Title: "A", References: #b}},
	 Entry: #b{Movie: {Title: "B", References: #a}}}`)
	if !s.Conforms(data) {
		t.Error("cyclic references should conform via the schema cycle")
	}
}

func TestWildcardSchema(t *testing.T) {
	s := MustParse(`#any{_: #any}`)
	data := movieData(t)
	if !s.Conforms(data) {
		t.Error("the universal schema must accept everything")
	}
}

func TestInterpretLabel(t *testing.T) {
	cases := []struct {
		label ssd.Label
		data  ssd.Label
		want  bool
	}{
		{ssd.Sym("_"), ssd.Str("anything"), true},
		{ssd.Sym("isint"), ssd.Int(3), true},
		{ssd.Sym("isint"), ssd.Str("3"), false},
		{ssd.Sym("isdata"), ssd.Float(1.5), true},
		{ssd.Sym("like:act%"), ssd.Sym("actors"), true},
		{ssd.Sym("like:act%"), ssd.Sym("directors"), false},
		{ssd.Sym("Movie"), ssd.Sym("Movie"), true},
		{ssd.Sym("Movie"), ssd.Sym("Show"), false},
		{ssd.Str("x"), ssd.Str("x"), true},
	}
	for _, c := range cases {
		if got := InterpretLabel(c.label).Match(c.data); got != c.want {
			t.Errorf("InterpretLabel(%s).Match(%s) = %v, want %v", c.label, c.data, got, c.want)
		}
	}
}

func TestSetPred(t *testing.T) {
	g := ssd.New()
	g.AddLeaf(g.Root(), ssd.Sym("year"))
	s := New(g)
	s.SetPred(g.Root(), 0, pathexpr.CmpPred{Op: pathexpr.OpGT, Rhs: ssd.Int(1900)})
	okData := ssd.MustParse(`{1950}`)
	if !s.Conforms(okData) {
		t.Error("1950 > 1900 should conform")
	}
	badData := ssd.MustParse(`{1850}`)
	if s.Conforms(badData) {
		t.Error("1850 should not conform")
	}
}

func TestClassify(t *testing.T) {
	s := MustParse(`{Movie: {Title: isstring}}`)
	data := ssd.MustParse(`{Movie: {Title: "x"}}`)
	classes := s.Classify(data)
	if len(classes[data.Root()]) == 0 {
		t.Error("root should be classified by the schema root")
	}
	found := false
	for _, u := range classes[data.Root()] {
		if u == s.G.Root() {
			found = true
		}
	}
	if !found {
		t.Error("root's classes should include the schema root")
	}
}

func TestPrunePreservesResults(t *testing.T) {
	s := MustParse(movieSchemaSrc)
	data := movieData(t)
	for _, src := range []string{
		"Entry.Movie.Title",
		"Entry.Movie.Title._",
		"_*.isstring",
		"Entry.(Movie|TV-Show).Cast._*",
		`Entry.Movie.(!Movie)*."Allen"`,
		"Entry.Movie.References.Movie.Title._",
	} {
		plain := pathexpr.MustCompile(src).Eval(data, data.Root())
		pruned := s.Prune(pathexpr.MustCompile(src)).Eval(data, data.Root())
		if !reflect.DeepEqual(plain, pruned) {
			t.Errorf("%s: plain %v, pruned %v", src, plain, pruned)
		}
	}
}

func TestPruneEliminatesImpossible(t *testing.T) {
	s := MustParse(movieSchemaSrc)
	// The schema has no Budget edge anywhere: the pruned automaton should
	// be empty (zero arcs from its start), and evaluation returns nothing.
	au := s.Prune(pathexpr.MustCompile("Entry.Movie.Budget"))
	data := movieData(t)
	if got := au.Eval(data, data.Root()); len(got) != 0 {
		t.Errorf("impossible query returned %v", got)
	}
	if au.NumStates() > 2 {
		t.Errorf("impossible query should compile to the empty automaton, got %d states", au.NumStates())
	}
}

func TestPruneShrinksSearch(t *testing.T) {
	s := MustParse(movieSchemaSrc)
	// TV shows have no Director: pruning `Entry._.Director._` should drop
	// the TV-Show branch. We can't observe internal visit counts here (the
	// bench does), but the pruned automaton must still be correct.
	data := movieData(t)
	src := "Entry._.Director._"
	plain := pathexpr.MustCompile(src).Eval(data, data.Root())
	pruned := s.Prune(pathexpr.MustCompile(src)).Eval(data, data.Root())
	if !reflect.DeepEqual(plain, pruned) {
		t.Errorf("plain %v pruned %v", plain, pruned)
	}
	if len(plain) != 2 {
		t.Errorf("Director values = %d, want 2", len(plain))
	}
}

func TestInferConformance(t *testing.T) {
	data := movieData(t)
	s := Infer(data)
	if !s.Conforms(data) {
		t.Fatalf("data must conform to its inferred schema:\n%s", s)
	}
	nodes, edges := s.Size()
	if nodes == 0 || edges == 0 {
		t.Error("inferred schema is empty")
	}
	// The schema generalizes: strings became isstring.
	hasIsString := false
	for _, l := range s.Labels() {
		if sym, _ := l.Symbol(); sym == "isstring" {
			hasIsString = true
		}
	}
	if !hasIsString {
		t.Error("inferred schema should contain isstring edges")
	}
	if MustParse(`{Nope: {}}`).Conforms(data) {
		t.Error("data must not conform to an unrelated schema")
	}
}

func TestInferConformanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(seed)
		return Infer(g).Conforms(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestInferSmallerThanData(t *testing.T) {
	// 50 identical entries infer to a constant-size schema.
	g := ssd.New()
	for i := 0; i < 50; i++ {
		e := g.AddLeaf(g.Root(), ssd.Sym("Entry"))
		ti := g.AddLeaf(e, ssd.Sym("Title"))
		g.AddLeaf(ti, ssd.Str("same"))
	}
	s := Infer(g)
	nodes, _ := s.Size()
	if nodes > 5 {
		t.Errorf("inferred schema has %d nodes, want ≤ 5", nodes)
	}
}

func randGraph(seed int64) *ssd.Graph {
	g := ssd.New()
	ids := []ssd.NodeID{g.Root()}
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	for i := 0; i < 12; i++ {
		ids = append(ids, g.AddNode())
	}
	labels := []ssd.Label{ssd.Sym("a"), ssd.Sym("b"), ssd.Int(1), ssd.Str("v"), ssd.Float(0.5)}
	for i := 0; i < 30; i++ {
		g.AddEdge(ids[next(len(ids))], labels[next(len(labels))], ids[next(len(ids))])
	}
	return g
}
