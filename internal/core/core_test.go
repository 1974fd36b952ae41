package core

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bisim"
	"repro/internal/dataguide"
	"repro/internal/oem"
	"repro/internal/pathexpr"
	"repro/internal/ssd"
	"repro/internal/unql"
	"repro/internal/workload"
)

func fig1DB(t *testing.T) *Database {
	t.Helper()
	return FromGraph(workload.Fig1(false))
}

// execStmt prepares src and runs it to its result database (select
// queries and transforms).
func execStmt(t *testing.T, db *Database, src string, args ...Param) *Database {
	t.Helper()
	s, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(context.Background(), args...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pathNodes runs `path: src` and returns the sorted matching nodes.
func pathNodes(t *testing.T, db *Database, src string) []ssd.NodeID {
	t.Helper()
	s, err := db.Prepare("path: " + src)
	if err != nil {
		t.Fatal(err)
	}
	nodes, _, err := drainPath(s)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// countRows drains a statement's rows and returns how many there were.
func countRows(t *testing.T, db *Database, src string) int {
	t.Helper()
	s, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	return stmtRows(t, s)
}

// stmtRows runs s and counts its rows.
func stmtRows(t *testing.T, s *Stmt, args ...Param) int {
	t.Helper()
	rows, err := s.Query(context.Background(), args...)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

func equalDB(a, b *Database) bool { return bisim.Equal(a.Graph(), b.Graph()) }

func TestParseTextAndFormat(t *testing.T) {
	db, err := ParseText(`{a: 1, b: "x"}`)
	if err != nil {
		t.Fatal(err)
	}
	if db.Format() == "" {
		t.Error("empty format")
	}
	if _, err := ParseText(`{broken`); err == nil {
		t.Error("bad text should error")
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	db := fig1DB(t)
	path := filepath.Join(t.TempDir(), "fig1.ssdg")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !equalDB(db, back) {
		t.Error("save/open changed the value")
	}
}

func TestQueryEndToEnd(t *testing.T) {
	db := fig1DB(t)
	res := execStmt(t, db, `
		select {Title: T}
		from DB.Entry.Movie M, M.Title T, M.Cast._* A
		where A = "Allen"`)
	want, _ := ParseText(`{Title: {"Play it again, Sam"}}`)
	if !equalDB(res, want) {
		t.Errorf("got %s", res.Format())
	}
	if _, err := db.Prepare(`select`); err == nil {
		t.Error("bad query should error")
	}
}

func TestQueryRows(t *testing.T) {
	db := fig1DB(t)
	if n := countRows(t, db, `select T from DB.Entry.Movie.Title T`); n != 2 {
		t.Errorf("rows = %d", n)
	}
}

func TestPathQueryAndIndexedAgree(t *testing.T) {
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(100)))
	for _, src := range []string{
		"Entry.Movie.Title._",
		`_*."Bogart"`,
		"Entry._.Cast.(isint|Credit.Actors)._",
	} {
		direct := pathNodes(t, db, src)
		indexed := dataguide.MustBuild(db.Graph()).Eval(pathexpr.MustCompile(src))
		if len(direct) != len(indexed) {
			t.Errorf("%s: direct %d, indexed %d", src, len(direct), len(indexed))
		}
	}
	if _, err := db.Prepare("path: (("); err == nil {
		t.Error("bad path should error")
	}
}

func TestDatalogEndToEnd(t *testing.T) {
	db := fig1DB(t)
	n := countRows(t, db, `datalog:
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).`)
	acc, _ := db.Graph().Accessible()
	if n != acc.NumNodes() {
		t.Errorf("reach = %d, want %d", n, acc.NumNodes())
	}
	if _, err := db.Prepare(`datalog: broken`); err == nil {
		t.Error("bad program should error")
	}
}

// TestBrowsingQueries asks the three §1.3 questions as statements, and
// browses the DataGuide.
func TestBrowsingQueries(t *testing.T) {
	db := fig1DB(t)
	if hits := pathNodes(t, db, `_*."Casablanca"`); len(hits) != 1 {
		t.Errorf("string Casablanca: %d hits", len(hits))
	}
	if hits := pathNodes(t, db, `_*.>65536`); len(hits) != 1 { // Episode
		t.Errorf("ints > 2^16: %d hits", len(hits))
	}
	attrs := execStmt(t, db, `select {%L} from DB._* X, X.%L Y where issymbol(%L) and %L like "Cast%"`)
	if want, _ := ParseText(`{Cast: {}}`); !equalDB(attrs, want) {
		t.Errorf("attributes like Cast%%: %s", attrs.Format())
	}
	if paths := dataguide.MustBuild(db.Graph()).Summary(2, 50); len(paths) == 0 {
		t.Error("DataGuide summary is empty")
	}
}

func TestRestructuringFlow(t *testing.T) {
	bad := FromGraph(workload.Fig1(true))
	good := fig1DB(t)
	fixed := execStmt(t, bad, `relabel "Bacal" to "Bacall"`)
	if !equalDB(fixed, good) {
		t.Error("Bacall fix failed")
	}
	noRefs := execStmt(t, good, `delete References`)
	if refs := pathNodes(t, noRefs, "_*.References"); len(refs) != 0 {
		t.Error("References survived deletion")
	}
	collapsed := execStmt(t, good, `collapse Credit`)
	if hits := pathNodes(t, collapsed, "Entry.Movie.Cast.Actors"); len(hits) != 1 {
		t.Errorf("collapsed Actors hits = %d, want 1", len(hits))
	}
}

func TestDescribe(t *testing.T) {
	if fig1DB(t).Describe() == "" {
		t.Error("empty describe")
	}
}

// TestTransformCustom: a structural-recursion rewriter with no statement
// form runs as unql.GExt on Graph(), and the result is queryable as a fresh
// handle.
func TestTransformCustom(t *testing.T) {
	db := fig1DB(t)
	out := FromGraph(unql.GExt(db.Graph(), func(l ssd.Label, _, _ ssd.NodeID, _ *ssd.Graph) unql.Action {
		if s, ok := l.Symbol(); ok && s == "Title" {
			return unql.RelabelTo(ssd.Sym("TITLE"))
		}
		return unql.Keep(l)
	}))
	if hits := pathNodes(t, out, "_*.TITLE"); len(hits) != 3 {
		t.Errorf("TITLE edges = %d, want 3", len(hits))
	}
	if gone := pathNodes(t, out, "_*.Title"); len(gone) != 0 {
		t.Error("Title edges survived")
	}
}

// TestOEMExchange: a database imported from the OEM wire format answers
// symbol-path statements as the original does (under the synthetic root
// label).
func TestOEMExchange(t *testing.T) {
	db := fig1DB(t)
	d, err := oem.Parse(oem.FromGraph(db.Graph()).Format())
	if err != nil {
		t.Fatal(err)
	}
	back := FromGraph(oem.ToGraph(d))
	orig := pathNodes(t, db, "Entry.Movie.Title")
	via := pathNodes(t, back, "root.Entry.Movie.Title")
	if len(orig) != len(via) {
		t.Errorf("OEM round trip: %d vs %d title nodes", len(orig), len(via))
	}
}

func TestConcurrentQueries(t *testing.T) {
	// Queries must be safe to run concurrently on one Database handle: the
	// lazy label-index/guide builds, the graph's lazy reverse adjacency
	// (index-backward access), and per-plan automata are all exercised.
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(50)))
	queries := []string{
		`select T from DB.Entry.Movie.Title T`,
		`select X from DB.Entry.TV-Show.Episode X`, // index-backward eligible
		`select X from DB._*.Episode X`,            // index-seek eligible
		`select @P from DB.@P X where pathlen(@P) = 3`,
		`select {Title: T} from DB.Entry.Movie M, M.Title T where exists M.Cast`,
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, src := range queries {
				s, err := db.PrepareCached(src)
				if err == nil {
					_, err = s.Exec(context.Background())
				}
				if err != nil {
					t.Errorf("query %q: %v", src, err)
				}
			}
		}()
	}
	wg.Wait()
}
