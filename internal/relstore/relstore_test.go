package relstore

import (
	"testing"

	"repro/internal/bisim"
	"repro/internal/query"
	"repro/internal/ssd"
)

func movies() *Relation {
	r := NewRelation("title", "year", "director")
	r.Add(ssd.Str("Casablanca"), ssd.Int(1942), ssd.Str("Curtiz"))
	r.Add(ssd.Str("Annie Hall"), ssd.Int(1977), ssd.Str("Allen"))
	r.Add(ssd.Str("Sleeper"), ssd.Int(1973), ssd.Str("Allen"))
	return r
}

func directors() *Relation {
	r := NewRelation("director", "born")
	r.Add(ssd.Str("Curtiz"), ssd.Int(1886))
	r.Add(ssd.Str("Allen"), ssd.Int(1935))
	return r
}

func TestAddDedup(t *testing.T) {
	r := NewRelation("a")
	if !r.Add(ssd.Int(1)) || r.Add(ssd.Int(1)) {
		t.Error("set semantics broken")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRelation("a", "b").Add(ssd.Int(1))
}

func TestSelectProject(t *testing.T) {
	m := movies()
	allen := SelectEq(m, "director", ssd.Str("Allen"))
	if allen.Len() != 2 {
		t.Fatalf("allen movies = %d", allen.Len())
	}
	titles := Project(allen, "title")
	if titles.Len() != 2 || titles.Arity() != 1 {
		t.Fatalf("titles = %v", titles)
	}
	years := Project(movies(), "director")
	if years.Len() != 2 { // Curtiz, Allen — projection dedups
		t.Errorf("distinct directors = %d, want 2", years.Len())
	}
}

func TestJoin(t *testing.T) {
	j := Join(movies(), directors())
	if j.Len() != 3 {
		t.Fatalf("join rows = %d, want 3", j.Len())
	}
	if j.Arity() != 4 { // title, year, director, born
		t.Fatalf("join arity = %d", j.Arity())
	}
	bornCol := j.Col("born")
	for _, row := range j.Rows() {
		if _, ok := row[bornCol].IntVal(); !ok {
			t.Error("born column not joined")
		}
	}
	// Join with no shared columns degenerates to product size.
	p := Join(NewRelationFrom("x", ssd.Int(1), ssd.Int(2)), NewRelationFrom("y", ssd.Int(3)))
	if p.Len() != 2 {
		t.Errorf("joinless join = %d rows, want 2", p.Len())
	}
}

// NewRelationFrom builds a unary relation for tests.
func NewRelationFrom(col string, vals ...ssd.Label) *Relation {
	r := NewRelation(col)
	for _, v := range vals {
		r.Add(v)
	}
	return r
}

func TestUnionDiff(t *testing.T) {
	a := NewRelationFrom("x", ssd.Int(1), ssd.Int(2))
	b := NewRelationFrom("x", ssd.Int(2), ssd.Int(3))
	if got := Union(a, b).Len(); got != 3 {
		t.Errorf("union = %d", got)
	}
	if got := Diff(a, b).Len(); got != 1 {
		t.Errorf("diff = %d", got)
	}
}

func TestRenameProduct(t *testing.T) {
	a := NewRelationFrom("x", ssd.Int(1))
	r := Rename(a, "x", "y")
	if r.Col("y") != 0 || r.Col("x") != -1 {
		t.Error("rename broken")
	}
	p := Product(a, a)
	if p.Len() != 1 || p.Arity() != 2 {
		t.Errorf("product = %d rows, arity %d", p.Len(), p.Arity())
	}
	if p.Col("s.x") < 0 {
		t.Error("product should prefix colliding columns")
	}
}

func TestEqual(t *testing.T) {
	a := movies()
	b := movies()
	if !a.Equal(b) {
		t.Error("identical relations unequal")
	}
	b.Add(ssd.Str("Zelig"), ssd.Int(1983), ssd.Str("Allen"))
	if a.Equal(b) {
		t.Error("different relations equal")
	}
}

func TestRelationalRoundTrip(t *testing.T) {
	db := Database{"movies": movies(), "directors": directors()}
	g := EncodeRelational(db)
	back, err := DecodeRelational(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("tables = %d", len(back))
	}
	for name, rel := range db {
		// Column order may differ (decode sorts); compare projected.
		got := Project(back[name], rel.Cols...)
		if !got.Equal(rel) {
			t.Errorf("%s round trip:\n got %s\nwant %s", name, got, rel)
		}
	}
}

func TestDecodeRejectsRagged(t *testing.T) {
	g := ssd.MustParse(`{t: {tuple: {a: 1}, tuple: {a: 1, b: 2}}}`)
	if _, err := DecodeRelational(g); err == nil {
		t.Error("ragged table should not decode")
	}
	g2 := ssd.MustParse(`{t: {nottuple: {a: 1}}}`)
	if _, err := DecodeRelational(g2); err == nil {
		t.Error("non-tuple edge should not decode")
	}
	g3 := ssd.MustParse(`{t: {tuple: {a: {1, 2}}}}`)
	if _, err := DecodeRelational(g3); err == nil {
		t.Error("multi-valued column should not decode")
	}
	// Figure 1 is semistructured, not relational (§5's boundary).
	fig1 := ssd.MustParse(`{Entry: {Movie: {Title: "Casablanca", Cast: {1: "Bogart", 2: "Bacall"}}},
	                        Entry: {TV-Show: {Title: "Bogart retrospective", Episode: 1200000}}}`)
	if _, err := DecodeRelational(fig1); err == nil {
		t.Error("figure-1 data should not decode as tables")
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	g := ssd.MustParse(`
	{Entry: #e{Movie: {Title: "Casablanca", Year: 1942, Rating: 8.5,
	                   Classic: true, Self: #e}}}`)
	db := GraphToTriples(g)
	back, err := TriplesToGraph(db)
	if err != nil {
		t.Fatal(err)
	}
	if !bisim.Equal(g, back) {
		t.Errorf("triple round trip changed value:\n got %s\nwant %s",
			ssd.FormatRoot(back), ssd.FormatRoot(g))
	}
}

func TestTriplesPerKind(t *testing.T) {
	g := ssd.MustParse(`{a: 1, b: "s", c: 2.5, d: true}`)
	db := GraphToTriples(g)
	if db[TriplesSym].Len() != 4 {
		t.Errorf("sym triples = %d, want 4", db[TriplesSym].Len())
	}
	if db[TriplesInt].Len() != 1 || db[TriplesString].Len() != 1 ||
		db[TriplesFloat].Len() != 1 || db[TriplesBool].Len() != 1 {
		t.Error("per-kind shredding wrong")
	}
}

// E5 heart: the query language over the relational encoding returns the
// same answer as the relational algebra plan.
func TestQueryEquivalenceSelectProject(t *testing.T) {
	db := Database{"movies": movies()}
	g := EncodeRelational(db)

	// RA: π_title(σ_director="Allen"(movies))
	ra := Project(SelectEq(movies(), "director", ssd.Str("Allen")), "title")

	// Query language over the graph encoding.
	q := query.MustParse(`
		select {tuple: {title: T}}
		from DB.movies.tuple R, R.title T, R.director D
		where D = "Allen"`)
	res, err := query.Eval(q, g)
	if err != nil {
		t.Fatal(err)
	}
	// Decode the result as a single-table database (wrap in a table edge).
	wrapped := ssd.New()
	wrapped.AddEdge(wrapped.Root(), ssd.Sym("out"), wrapped.Graft(res, res.Root()))
	got, err := DecodeRelational(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !got["out"].Equal(ra) {
		t.Errorf("query result:\n%s\nrelational algebra:\n%s", got["out"], ra)
	}
}

func TestQueryEquivalenceJoin(t *testing.T) {
	db := Database{"movies": movies(), "directors": directors()}
	g := EncodeRelational(db)

	// RA: π_title,born(movies ⋈ directors)
	ra := Project(Join(movies(), directors()), "title", "born")

	q := query.MustParse(`
		select {tuple: {title: T, born: B}}
		from DB.movies.tuple R, R.title T, R.director D,
		     DB.directors.tuple S, S.director D2, S.born B
		where D = D2`)
	res, err := query.Eval(q, g)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := ssd.New()
	wrapped.AddEdge(wrapped.Root(), ssd.Sym("out"), wrapped.Graft(res, res.Root()))
	got, err := DecodeRelational(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	want := Project(got["out"], "title", "born") // align column order
	if !want.Equal(ra) {
		t.Errorf("query join:\n%s\nRA join:\n%s", want, ra)
	}
}
