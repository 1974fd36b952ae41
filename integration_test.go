package repro

// Cross-module integration tests: the paper presents several computational
// strategies for the same class of queries (path expressions, the
// select-from-where language, graph datalog, structural recursion). These
// tests pose one question to multiple engines and require identical
// answers, plus end-to-end flows across codecs, schemas and guides.

import (
	"context"
	"sort"
	"testing"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/datalog"
	"repro/internal/decomp"
	"repro/internal/oracle"
	"repro/internal/pathexpr"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/unql"
	"repro/internal/workload"
)

// TestThreeEnginesAgree asks "which nodes carry a given string edge" via
// path expressions, the query language, and datalog.
func TestThreeEnginesAgree(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(500))

	// 1. Path expression: nodes with an outgoing "Bogart" edge are the
	// parents of `_*."Bogart"` hits; bind them directly in the query
	// language instead to make the three results comparable.
	au := pathexpr.MustCompile(`_*."Bogart"`)
	viaPath := map[ssd.NodeID]bool{}
	// Parent reconstruction: any node with a "Bogart" out-edge that is
	// reachable. Use the automaton hits' predecessors via a scan.
	hits := au.Eval(g, g.Root())
	hitSet := map[ssd.NodeID]bool{}
	for _, h := range hits {
		hitSet[h] = true
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(ssd.NodeID(v)) {
			if e.Label.Equal(ssd.Str("Bogart")) && hitSet[e.To] {
				viaPath[ssd.NodeID(v)] = true
			}
		}
	}

	// 2. Query language.
	q := query.MustParse(`select X from DB._* X where X = "Bogart"`)
	rows, err := oracle.Rows(q, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	viaQuery := map[ssd.NodeID]bool{}
	for _, r := range rows {
		viaQuery[r.Trees["X"]] = true
	}

	// 3. Datalog.
	prog := datalog.MustParseProgram(`
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).
		holder(X) :- reach(X), edge(X, "Bogart", _).`)
	rels, err := datalog.NewEngine(g).Run(context.Background(), prog, datalog.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	viaDatalog := map[ssd.NodeID]bool{}
	for _, tup := range rels["holder"].Tuples() {
		viaDatalog[tup[0].Node] = true
	}

	if !sameNodeSet(viaPath, viaQuery) {
		t.Errorf("path (%d) and query (%d) disagree", len(viaPath), len(viaQuery))
	}
	if !sameNodeSet(viaQuery, viaDatalog) {
		t.Errorf("query (%d) and datalog (%d) disagree", len(viaQuery), len(viaDatalog))
	}
}

func sameNodeSet(a, b map[ssd.NodeID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for n := range a {
		if !b[n] {
			return false
		}
	}
	return true
}

// TestReachabilityFourWays computes the reachable node count via graph
// traversal, datalog, path expressions, and decomposition.
func TestReachabilityFourWays(t *testing.T) {
	g := workload.Web(workload.WebConfig{Pages: 400, OutLinks: 3, Seed: 3})
	acc, _ := g.Accessible()
	want := acc.NumNodes()

	au := pathexpr.MustCompile("_*")
	if got := len(au.Eval(g, g.Root())); got != want {
		t.Errorf("path _*: %d, want %d", got, want)
	}

	rels, err := datalog.NewEngine(g).Run(context.Background(), datalog.MustParseProgram(`
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).`), datalog.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if got := rels["reach"].Len(); got != want {
		t.Errorf("datalog: %d, want %d", got, want)
	}

	p := decomp.PartitionBFS(g, 4)
	if got := len(decomp.Eval(g, pathexpr.MustCompile("_*"), p, true)); got != want {
		t.Errorf("decomposed: %d, want %d", got, want)
	}
}

// TestRestructureThenQuery chains structural recursion with the query
// language: after collapsing Credit, the uniform query finds all actors.
func TestRestructureThenQuery(t *testing.T) {
	g := workload.Fig1(false)
	flat := unql.CollapseEdges(g, pathexpr.ExactPred{L: ssd.Sym("Credit")})
	q := query.MustParse(`
		select {Name: %N}
		from DB.Entry.Movie.Cast.(isint|Actors)? C, C.%N L
		where isstring(%N)`)
	res, err := query.Eval(q, flat)
	if err != nil {
		t.Fatal(err)
	}
	want := ssd.MustParse(`{Name: {"Bogart"}, Name: {"Bacall"}, Name: {"Allen"}}`)
	if !bisim.Equal(res, want) {
		t.Errorf("got %s", ssd.FormatRoot(res))
	}
}

// TestPersistedDatabaseIdenticalBehaviour runs the same query before and
// after a binary save/load cycle.
func TestPersistedDatabaseIdenticalBehaviour(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(300))
	path := t.TempDir() + "/db.ssdg"
	if err := storage.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := storage.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustParse(`select T from DB.Entry.Movie M, M.Title T where exists M.References`)
	r1, err := query.Eval(q, g)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := query.Eval(q, g2)
	if err != nil {
		t.Fatal(err)
	}
	if !bisim.Equal(r1, r2) {
		t.Error("persisted database answers differently")
	}
}

// TestGuideSchemaConsistency: data conforms to its inferred schema, the
// guide evaluates queries identically to the data, and pruning the query by
// the inferred schema changes nothing.
func TestGuideSchemaConsistency(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(400))
	s := schema.Infer(g)
	if !s.Conforms(g) {
		t.Fatal("inferred schema must accept its own data")
	}
	guide := dataguide.MustBuild(g)
	for _, src := range []string{
		"Entry.Movie.Title._",
		"Entry._.Cast.(isint|Credit.Actors|Special-Guests)._",
	} {
		direct := pathexpr.MustCompile(src).Eval(g, g.Root())
		viaGuide := guide.Eval(pathexpr.MustCompile(src))
		pruned := s.Prune(pathexpr.MustCompile(src)).Eval(g, g.Root())
		if !equalNodes(direct, viaGuide) {
			t.Errorf("%s: guide disagrees", src)
		}
		if !equalNodes(direct, pruned) {
			t.Errorf("%s: schema-pruned disagrees", src)
		}
	}
}

func equalNodes(a, b []ssd.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOEMExchangePreservesQueries: exporting an encoded relational
// database and re-importing it leaves values and prepared-statement answers
// unchanged (the §1.2 exchange claim).
func TestOEMExchangePreservesQueries(t *testing.T) {
	g := relstore.EncodeRelational(workload.Relational(50, 8, 1))
	back, err := relstore.DecodeRelational(g)
	if err != nil {
		t.Fatal(err)
	}
	g2 := relstore.EncodeRelational(back)
	if !bisim.Equal(g, g2) {
		t.Error("import∘export∘import is not the identity on values")
	}
	answer := func(g *ssd.Graph) *ssd.Graph {
		t.Helper()
		s, err := core.FromGraph(g).Prepare(`select {title: T} from DB.movies.tuple R, R.title T`)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Graph()
	}
	if a, b := answer(g), answer(g2); a.NumEdges() == 0 || !bisim.Equal(a, b) {
		t.Error("re-imported database answers differently")
	}
}
