package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/bisim"
	"repro/internal/datalog"
	"repro/internal/pathexpr"
	"repro/internal/ssd"
	"repro/internal/unql"
	"repro/internal/workload"
)

// sniffCases are SniffLang's table; FuzzPrepare seeds from them too.
var sniffCases = []struct {
	src  string
	lang Lang
	body string
}{
	{`select T from DB.Entry.Movie.Title T`, LangQuery, `select T from DB.Entry.Movie.Title T`},
	{`SELECT T from DB.a T`, LangQuery, `SELECT T from DB.a T`},
	{`query: select T from DB.a T`, LangQuery, `select T from DB.a T`},
	{`Entry.Movie.Title`, LangPath, `Entry.Movie.Title`},
	{`path: delete`, LangPath, `delete`},
	{`reach(X) :- root(X).`, LangDatalog, `reach(X) :- root(X).`},
	{`datalog: reach(X) :- root(X).`, LangDatalog, `reach(X) :- root(X).`},
	{`relabel Title to TITLE`, LangTransform, `relabel Title to TITLE`},
	{`unql: delete References`, LangTransform, `delete References`},
	// A ":-" inside a string literal is data, not a datalog rule.
	{`_*."x:-y"`, LangPath, `_*."x:-y"`},
	// Any whitespace ends the verb.
	{"delete\tTitle", LangTransform, "delete\tTitle"},
}

func TestSniffLang(t *testing.T) {
	for _, c := range sniffCases {
		lang, body := SniffLang(c.src)
		if lang != c.lang || body != c.body {
			t.Errorf("SniffLang(%q) = (%s, %q), want (%s, %q)", c.src, lang, body, c.lang, c.body)
		}
	}
}

// TestStmtQueryParams: prepare once, execute many with different
// arguments; results match the equivalent literal queries.
func TestStmtQueryParams(t *testing.T) {
	db := fig1DB(t)
	s, err := db.Prepare(`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Params(); len(got) != 1 || got[0] != "who" {
		t.Fatalf("Params = %v", got)
	}
	for _, who := range []string{"Allen", "Bogart"} {
		res, err := s.Exec(context.Background(), P("who", who))
		if err != nil {
			t.Fatal(err)
		}
		lit := execStmt(t, db, fmt.Sprintf(`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "%s"`, who))
		if !equalDB(res, lit) {
			t.Errorf("who=%s: prepared result differs from literal query", who)
		}
	}
	// Argument validation.
	if _, err := s.Exec(context.Background()); err == nil {
		t.Error("missing parameter should error")
	}
	if _, err := s.Exec(context.Background(), P("who", "Allen"), P("x", 1)); err == nil {
		t.Error("unknown parameter should error")
	}
	if _, err := s.Exec(context.Background(), P("who", "Allen"), P("who", "Bogart")); err == nil {
		t.Error("duplicate parameter should error")
	}
}

// TestStmtCompareIntWithFloat: a where clause compares an int datum with a
// float literal by value, so 1 >= 1.0 and 1 <= 1.0 hold and 1 < 1.0 does not.
func TestStmtCompareIntWithFloat(t *testing.T) {
	db, err := ParseText(`{a: 1}`)
	if err != nil {
		t.Fatal(err)
	}
	for op, want := range map[string]int{"<": 0, "<=": 1, ">": 0, ">=": 1, "=": 1, "!=": 0} {
		s, err := db.Prepare(`select X from DB.a X where X ` + op + ` 1.0`)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := s.Query(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		rows.Close()
		if n != want {
			t.Errorf("X %s 1.0 over {a: 1}: %d rows, want %d", op, n, want)
		}
	}
}

// TestStmtRowsStreaming: the Rows cursor yields the nodes the equivalent
// path statement matches, and Scan reads typed columns.
func TestStmtRowsStreaming(t *testing.T) {
	db := fig1DB(t)
	const src = `select T from DB.Entry.Movie M, M.Title T`
	s, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if cols := s.Columns(); len(cols) != 2 || cols[0] != "M" || cols[1] != "T" {
		t.Fatalf("Columns = %v", cols)
	}
	rows, err := s.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var streamed []ssd.NodeID
	for rows.Next() {
		var m, tn ssd.NodeID
		if err := rows.Scan(&m, &tn); err != nil {
			t.Fatal(err)
		}
		env := rows.Env()
		if env.Trees["M"] != m || env.Trees["T"] != tn {
			t.Fatal("Scan and Env disagree")
		}
		streamed = append(streamed, tn)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(streamed, func(i, j int) bool { return streamed[i] < streamed[j] })
	if want := pathNodes(t, db, "Entry.Movie.Title"); !reflect.DeepEqual(streamed, want) {
		t.Fatalf("streamed T = %v, path statement %v", streamed, want)
	}

	// Label and path columns: Scan's positional slot reads must agree with
	// Env's by-name lookups — this is the cross-check that keeps the
	// statement layer's column order in sync with the planner's slots.
	ls, err := db.Prepare(`select {%L: @P} from DB.@P X, X.%L Y where pathlen(@P) = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if cols := ls.Columns(); len(cols) != 4 || cols[0] != "X" || cols[1] != "Y" || cols[2] != "%L" || cols[3] != "@P" {
		t.Fatalf("Columns = %v", cols)
	}
	lrows, err := ls.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lrows.Close()
	seen := 0
	for lrows.Next() {
		var x, y ssd.NodeID
		var l ssd.Label
		var p []ssd.Label
		if err := lrows.Scan(&x, &y, &l, &p); err != nil {
			t.Fatal(err)
		}
		env := lrows.Env()
		if env.Trees["X"] != x || env.Trees["Y"] != y ||
			!env.Labels["L"].Equal(l) || len(env.Paths["P"]) != len(p) {
			t.Fatal("Scan and Env disagree on label/path columns")
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("label/path query yielded no rows")
	}
}

// TestStmtPath: path statements stream nodes and support parameters.
func TestStmtPath(t *testing.T) {
	db := fig1DB(t)
	s, err := db.Prepare(`path: Entry.$kind.Title`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Lang() != LangPath {
		t.Fatalf("lang = %s", s.Lang())
	}
	drain := func(args ...Param) []ssd.NodeID {
		rows, err := s.Query(context.Background(), args...)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out []ssd.NodeID
		for rows.Next() {
			var n ssd.NodeID
			if err := rows.Scan(&n); err != nil {
				t.Fatal(err)
			}
			out = append(out, n)
		}
		return out
	}
	movies := drain(P("kind", ssd.Sym("Movie")))
	if want := pathNodes(t, db, "Entry.Movie.Title"); len(movies) != len(want) {
		t.Fatalf("param path %d nodes, literal %d", len(movies), len(want))
	}
	if shows := drain(P("kind", ssd.Sym("TV-Show"))); len(shows) != 1 {
		t.Fatalf("TV-Show titles = %d, want 1", len(shows))
	}
	// Path statements have no graph result.
	if _, err := s.Exec(context.Background(), P("kind", ssd.Sym("Movie"))); err == nil {
		t.Error("Exec on path statement should error")
	}
	// An unbound parameter is an error, not a match-nothing predicate.
	if _, err := s.Query(context.Background()); err == nil {
		t.Error("path statement with an unbound $param should error")
	}
}

// TestStmtDatalog: datalog statements stream the materialized tuples.
func TestStmtDatalog(t *testing.T) {
	db := fig1DB(t)
	const prog = `reach(X) :- root(X). reach(Y) :- reach(X), edge(X, _, Y).`
	s, err := db.Prepare("datalog: " + prog)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		var rel, tup string
		if err := rows.Scan(&rel, &tup); err != nil {
			t.Fatal(err)
		}
		if rel != "reach" {
			t.Fatalf("rel = %q", rel)
		}
		n++
	}
	rels, err := datalog.NewEngine(db.Graph()).Run(nil, datalog.MustParseProgram(prog), datalog.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if want := rels["reach"].Len(); n != want {
		t.Fatalf("streamed %d tuples, engine has %d", n, want)
	}
}

// TestPrepareChecksDatalog: an ill-formed datalog program fails at Prepare,
// before any execution materializes the graph's edge relation.
func TestPrepareChecksDatalog(t *testing.T) {
	db := fig1DB(t)
	for name, prog := range map[string]string{
		"unknown predicate": `p(X) :- nosuch(X).`,
		"edge arity":        `p(X) :- edge(X, Y).`,
		"unsafe head":       `p(X, Y) :- root(X).`,
	} {
		if _, err := db.Prepare("datalog: " + prog); err == nil {
			t.Errorf("%s: Prepare(%q) succeeded", name, prog)
		}
	}
}

// TestStmtTransform: the unql mini-language restructures like the unql
// package's functions, including a parameterized target label.
func TestStmtTransform(t *testing.T) {
	db := fig1DB(t)
	s, err := db.Prepare(`unql: relabel Title to $new`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Exec(context.Background(), P("new", ssd.Sym("TITLE")))
	if err != nil {
		t.Fatal(err)
	}
	want := unql.RelabelWhere(db.Graph(), pathexpr.ExactPred{L: ssd.Sym("Title")}, ssd.Sym("TITLE"))
	if !bisim.Equal(got.Graph(), want) {
		t.Fatal("transform statement differs from RelabelWhere")
	}
	if _, err := s.Query(context.Background(), P("new", ssd.Sym("TITLE"))); err == nil {
		t.Error("Query on transform statement should error")
	}

	del, err := db.Prepare(`unql: delete References`)
	if err != nil {
		t.Fatal(err)
	}
	trimmed, err := del.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if refs := pathNodes(t, trimmed, "_*.References"); len(refs) != 0 {
		t.Fatalf("References survived delete: %d", len(refs))
	}
}

// transformRegressions are transform commands the string-cutting parser
// rejected: whitespace other than a space, a quoted target holding " to "
// or a dot, and a float target.
var transformRegressions = []struct {
	src  string
	want func(g *ssd.Graph) *ssd.Graph
}{
	{"delete\tTitle", func(g *ssd.Graph) *ssd.Graph { return unql.DeleteEdges(g, title) }},
	{"relabel Title\tto z", func(g *ssd.Graph) *ssd.Graph { return unql.RelabelWhere(g, title, ssd.Sym("z")) }},
	{`relabel Title to "x to y"`, func(g *ssd.Graph) *ssd.Graph { return unql.RelabelWhere(g, title, ssd.Str("x to y")) }},
	{`expand Title to "p.q".r`, func(g *ssd.Graph) *ssd.Graph {
		return unql.ExpandEdges(g, title, ssd.Str("p.q"), ssd.Sym("r"))
	}},
	{`relabel Title to 2.5`, func(g *ssd.Graph) *ssd.Graph { return unql.RelabelWhere(g, title, ssd.Float(2.5)) }},
}

var title = pathexpr.ExactPred{L: ssd.Sym("Title")}

// TestTransformRegressions: each command prepares as a transform and
// restructures exactly like the unql function it names.
func TestTransformRegressions(t *testing.T) {
	db := fig1DB(t)
	for _, c := range transformRegressions {
		s, err := db.Prepare(c.src)
		if err != nil {
			t.Errorf("Prepare(%q): %v", c.src, err)
			continue
		}
		got, err := s.Exec(context.Background())
		if err != nil {
			t.Errorf("Exec(%q): %v", c.src, err)
			continue
		}
		if !bisim.Equal(got.Graph(), c.want(db.Graph())) {
			t.Errorf("%q restructured differently from its unql function", c.src)
		}
	}
	// The forms the issue reported, on labels fig1 lacks.
	for _, src := range []string{"delete\tTitle", "relabel a\tto z", `relabel a to "x to y"`, `expand a to "p.q".r`, `relabel a to 2.5`} {
		if _, err := db.Prepare(src); err != nil {
			t.Errorf("Prepare(%q): %v", src, err)
		}
	}
	for src, want := range map[string]string{
		"unql: relabel a to b.c": "unql: offset 14: relabel takes exactly one target label",
		"unql: delete a*":        "unql: offset 7: delete takes one label predicate",
		"unql: expand a":         "unql: offset 8: expand requires `to <label>`",
		"unql: collapse a to b":  `unql: offset 11: trailing input "to"`,
		"unql: expand a to $":    "unql: offset 13: expected parameter name after $",
		"unql: squash a":         `unql: offset 0: unknown transform verb "squash" (want relabel|delete|collapse|expand)`,
		"unql: relabel a to \"b": "unql: offset 13: unterminated string",
	} {
		if _, err := db.Prepare(src); err == nil || err.Error() != want {
			t.Errorf("Prepare(%q) = %v, want %s", src, err, want)
		}
	}
}

// TestPlanCacheInvalidation: a commit swaps the snapshot; the statement
// re-plans lazily and sees the new data, while a cursor opened before the
// commit keeps reading its own snapshot — a stale plan never touches a
// new graph version.
func TestPlanCacheInvalidation(t *testing.T) {
	db := fig1DB(t)
	const titles = `select T from DB.Entry.Movie.Title T`
	s, err := db.Prepare(titles)
	if err != nil {
		t.Fatal(err)
	}
	countRows := func(rows *Rows) int {
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		return n
	}
	before, err := s.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := countRows(before); got != 2 {
		t.Fatalf("before commit: %d rows, want 2", got)
	}

	// Open a cursor, THEN commit, then drain: the cursor's snapshot is
	// pinned, so it still sees the old state.
	pinned, err := s.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g := db.Graph()
	entry := g.LookupFirst(g.Root(), ssd.Sym("Entry"))
	movie := g.LookupFirst(entry, ssd.Sym("Movie"))
	b := db.Begin()
	titleNode := b.AddNode()
	leaf := b.AddNode()
	if err := b.AddEdge(movie, ssd.Sym("Title"), titleNode); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(titleNode, ssd.Str("Play It Again"), leaf); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
	if got := countRows(pinned); got != 2 {
		t.Fatalf("pinned cursor after commit: %d rows, want 2 (old snapshot)", got)
	}

	// A fresh execution re-plans against the new snapshot.
	after, err := s.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := countRows(after); got != 3 {
		t.Fatalf("after commit: %d rows, want 3", got)
	}
}

// TestStmtCancellation: a context cancelled mid-iteration stops the Rows
// cursor promptly and surfaces context.Canceled.
func TestStmtCancellation(t *testing.T) {
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(2000)))
	s, err := db.Prepare(`select X from DB._* X`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := s.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no first row")
	}
	cancel()
	extra := 0
	for rows.Next() {
		extra++
	}
	if rows.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
	if extra > 100 {
		t.Fatalf("cursor produced %d rows after cancellation", extra)
	}

	// Path statements cancel the same way.
	ps, err := db.Prepare(`path: _*`)
	if err != nil {
		t.Fatal(err)
	}
	pctx, pcancel := context.WithCancel(context.Background())
	prows, err := ps.Query(pctx)
	if err != nil {
		t.Fatal(err)
	}
	defer prows.Close()
	if !prows.Next() {
		t.Fatal("no first path row")
	}
	pcancel()
	for prows.Next() {
	}
	if prows.Err() != context.Canceled {
		t.Fatalf("path Err = %v, want context.Canceled", prows.Err())
	}

	// Datalog runs its fixpoint when the statement opens; a context
	// cancelled meanwhile stops it there.
	ds, err := db.Prepare(`datalog: reach(X) :- root(X). reach(Y) :- reach(X), edge(X, _, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if drows, err := ds.Query(&cancelAfter{Context: context.Background(), polls: 1}); err != context.Canceled {
		if err == nil {
			drows.Close()
		}
		t.Fatalf("datalog Query err = %v, want context.Canceled", err)
	}
}

// cancelAfter is a context that reports itself cancelled from its
// (polls+1)-th Err call on: cancellation that arrives while work runs,
// without a timer.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls > 0 {
		c.polls--
		return nil
	}
	return context.Canceled
}

// TestConcurrentStmtQueryDuringCommits is the -race test: many goroutines
// execute one shared prepared statement while a writer commits batches.
// Every execution must see a consistent snapshot (2 + commits-so-far
// titles) and never race on plan state.
func TestConcurrentStmtQueryDuringCommits(t *testing.T) {
	db := fig1DB(t)
	s, err := db.Prepare(`select T from DB.Entry.Movie.Title T`)
	if err != nil {
		t.Fatal(err)
	}
	const (
		readers = 8
		rounds  = 20
		commits = 15
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers*rounds+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			g := db.Graph()
			entry := g.LookupFirst(g.Root(), ssd.Sym("Entry"))
			movie := g.LookupFirst(entry, ssd.Sym("Movie"))
			b := db.Begin()
			titleNode := b.AddNode()
			leaf := b.AddNode()
			if err := b.AddEdge(movie, ssd.Sym("Title"), titleNode); err != nil {
				errs <- err
				return
			}
			if err := b.AddEdge(titleNode, ssd.Str(fmt.Sprintf("Sequel %d", i)), leaf); err != nil {
				errs <- err
				return
			}
			if err := db.Commit(b); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rows, err := s.Query(context.Background())
				if err != nil {
					errs <- err
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				rows.Close()
				if n < 2 || n > 2+commits {
					errs <- fmt.Errorf("inconsistent row count %d", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStmtCacheLRU is the regression test for the random-eviction bug: a
// hot statement must survive any number of distinct cold statements
// passing through the bounded cache, because every touch moves it to the
// LRU front. Under the old map-iteration eviction it had a near-certain
// chance of being thrown out somewhere in 300 inserts.
func TestStmtCacheLRU(t *testing.T) {
	db := FromGraph(workload.Fig1(false))
	const hot = `select T from DB.Entry.Movie.Title T`
	s0, err := db.PrepareCached(hot)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		cold := fmt.Sprintf(`select T from DB.Entry.Movie.Title T where T != "cold-%d"`, i)
		if _, err := db.PrepareCached(cold); err != nil {
			t.Fatal(err)
		}
		// The hot statement is touched between cold inserts, as a real
		// workload would.
		s, err := db.PrepareCached(hot)
		if err != nil {
			t.Fatal(err)
		}
		if s != s0 {
			t.Fatalf("hot statement evicted after %d cold inserts", i+1)
		}
	}
	// The cache stayed bounded.
	db.stmtMu.Lock()
	n, l := len(db.stmts), db.stmtLRU.Len()
	db.stmtMu.Unlock()
	if n > stmtCacheMax || n != l {
		t.Fatalf("cache size %d (lru %d), want <= %d and equal", n, l, stmtCacheMax)
	}
}

// TestParallelRowsErrCancellation: Rows.Err over a multi-atom join (the
// statement shape that once ran on a parallel backend) reports a cancelled
// context, never a clean exhaustion, and still reports it after Close has
// returned the plan and its executor to the pool for reuse.
func TestParallelRowsErrCancellation(t *testing.T) {
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(2000)))
	s, err := db.Prepare(`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := s.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no first row")
	}
	cancel()
	for rows.Next() {
	}
	if rows.Err() != context.Canceled {
		t.Fatalf("Rows.Err = %v, want context.Canceled", rows.Err())
	}
	rows.Close()
	if rows.Err() != context.Canceled {
		t.Fatalf("Rows.Err after Close = %v, want context.Canceled", rows.Err())
	}
}

// TestConcurrentParallelStmtQueryDuringCommits is the -race stress for a
// two-atom join statement: several goroutines run it at once from the
// statement's plan pool while a writer publishes commits. Every execution
// must see one consistent snapshot and report no error.
func TestConcurrentParallelStmtQueryDuringCommits(t *testing.T) {
	db := FromGraph(workload.Fig1(false))
	s, err := db.Prepare(`select T from DB.Entry.Movie M, M.Title T`)
	if err != nil {
		t.Fatal(err)
	}
	const (
		readers = 6
		rounds  = 15
		commits = 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers*rounds+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			g := db.Graph()
			entry := g.LookupFirst(g.Root(), ssd.Sym("Entry"))
			movie := g.LookupFirst(entry, ssd.Sym("Movie"))
			b := db.Begin()
			titleNode := b.AddNode()
			leaf := b.AddNode()
			if err := b.AddEdge(movie, ssd.Sym("Title"), titleNode); err != nil {
				errs <- err
				return
			}
			if err := b.AddEdge(titleNode, ssd.Str(fmt.Sprintf("Sequel %d", i)), leaf); err != nil {
				errs <- err
				return
			}
			if err := db.Commit(b); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rows, err := s.Query(context.Background())
				if err != nil {
					errs <- err
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				err = rows.Err()
				rows.Close()
				if err != nil {
					errs <- err
					return
				}
				if n < 2 || n > 2+commits {
					errs <- fmt.Errorf("inconsistent snapshot: %d titles", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzPrepare feeds arbitrary statement text to Prepare. Prepare must never
// panic, nor must Explain on what it prepares, and a transform's Explain
// description must prepare back (under `unql:`) to the same description.
//
//	go test -run=NONE -fuzz=FuzzPrepare -fuzztime=20s ./internal/core
func FuzzPrepare(f *testing.F) {
	for _, c := range sniffCases {
		f.Add(c.src)
	}
	for _, c := range transformRegressions {
		f.Add(c.src)
	}
	for _, src := range []string{"relabel a\tto z", `relabel a to "x to y"`, `expand a to "p.q".r`, `relabel a to 2.5`,
		`unql: relabel !like "T%" to $new`, `expand (_) to a.$x.3`, "unql: collapse <= 3"} {
		f.Add(src)
	}
	db := FromGraph(ssd.MustParse(`{Entry: {Movie: {Title: "Casablanca", Year: 1942}}}`))
	f.Fuzz(func(t *testing.T, src string) {
		s, err := db.Prepare(src)
		if err != nil {
			return
		}
		out, err := s.Explain()
		if err != nil || s.Lang() != LangTransform {
			return
		}
		desc := strings.TrimSuffix(strings.TrimPrefix(out, "transform: "), "\n")
		back, err := db.Prepare("unql: " + desc)
		if err != nil {
			t.Fatalf("description %q of %q does not prepare: %v", desc, src, err)
		}
		if again, _ := back.Explain(); again != out {
			t.Fatalf("%q explains as %q, its description as %q", src, out, again)
		}
	})
}
