package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/bisim"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// canonQuery runs a query and returns the canonical byte representation of
// its result value.
func canonQuery(t *testing.T, db *Database, src string) string {
	t.Helper()
	return canonDB(execStmt(t, db, src))
}

// TestMutationInvalidatesCaches is the stale-cache regression test: build
// every derived structure, mutate, and verify that queries, path
// statements, the DataGuide, and the planner all reflect the new version.
func TestMutationInvalidatesCaches(t *testing.T) {
	db := FromGraph(workload.Fig1(false))

	const titles = `select T from DB.Entry.Movie.Title T`
	before := canonQuery(t, db, titles)
	// Force every lazy structure on the current snapshot.
	if hits := pathNodes(t, db, `_*."Casablanca"`); len(hits) == 0 {
		t.Fatal("path statement found nothing")
	}
	if len(db.DataGuide().Summary(2, 10)) == 0 {
		t.Fatal("guide found nothing")
	}
	guideBefore := db.DataGuide()

	// Mutate: attach a second movie title through the write path.
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

	// The planned query (through the incrementally maintained label index)
	// and the reference evaluator must both see the new edge — and agree.
	after := canonQuery(t, db, titles)
	if after == before {
		t.Fatal("query result unchanged after mutation: stale cache")
	}
	naive, err := oracle.Eval(query.MustParse(titles), db.Graph(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bisim.Equal(execStmt(t, db, titles).Graph(), naive) {
		t.Fatal("planned engine and oracle disagree after mutation")
	}
	// The incrementally maintained label index holds the new string, and
	// the delta didn't clobber the shared postings of old ones.
	labels := db.snapshot().labels()
	if hits := labels.Lookup(ssd.Str("Play It Again")); len(hits) != 1 {
		t.Fatalf("label index after mutation = %v", hits)
	}
	if hits := labels.Lookup(ssd.Str("Casablanca")); len(hits) == 0 {
		t.Fatal("old string lost after mutation")
	}
	if hits := pathNodes(t, db, `_*."Play It Again"`); len(hits) != 1 {
		t.Fatalf("path statement after mutation = %v", hits)
	}
	// DataGuide: incrementally extended, not the stale pointer.
	if db.DataGuide() == guideBefore {
		t.Fatal("DataGuide not refreshed after mutation")
	}

	// Transform statements return fresh handles whose caches restart.
	db2 := execStmt(t, db, `delete Title`)
	if got := canonQuery(t, db2, titles); got != "{}" {
		t.Fatalf("delete result still has titles: %s", got)
	}
	if hits := pathNodes(t, db2, `_*."Casablanca"`); len(hits) != 0 {
		t.Fatalf("fresh handle served a stale label index: %v", hits)
	}
	// And the receiver is untouched.
	if got := canonQuery(t, db, titles); got != after {
		t.Fatal("transform statement mutated the receiver")
	}
}

// TestCommitWALReplay is the acceptance test: commits logged by one
// process to a durable directory, recovered by OpenPath in a fresh one,
// yield a database whose query results are byte-identical via
// bisim.Canonicalize — and so does the directory after a checkpoint folds
// the log into a new generation.
func TestCommitWALReplay(t *testing.T) {
	dir := t.TempDir()

	queries := []string{
		`select T from DB.Entry.Movie.Title T`,
		`select {Who: D} from DB.Entry.Movie M, M.Director D`,
		`select X from DB._*.Year X`,
	}

	// "Process 1": seed the directory, open it, commit batches.
	must(t, FromGraph(workload.Fig1(false)).SavePath(dir))
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := db.Graph()
	entry := g.LookupFirst(g.Root(), ssd.Sym("Entry"))
	movie := g.LookupFirst(entry, ssd.Sym("Movie"))

	b := db.Begin()
	year := b.AddNode()
	leaf := b.AddNode()
	must(t, b.AddEdge(movie, ssd.Sym("Year"), year))
	must(t, b.AddEdge(year, ssd.Int(1942), leaf))
	must(t, db.Commit(b))

	b = db.Begin()
	must(t, b.Relabel(movie, ssd.Sym("Director"), ssd.Sym("DirectedBy")))
	must(t, b.SetOID(movie, "&m1"))
	must(t, db.Commit(b))

	b = db.Begin()
	title := db.Graph().LookupFirst(movie, ssd.Sym("Title"))
	must(t, b.DeleteEdge(movie, ssd.Sym("Title"), title))
	must(t, db.Commit(b))
	must(t, db.CloseWAL())

	// "Process 2": a fresh handle from the directory alone.
	db2, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ri := db2.LastRecovery(); ri.Replayed != 3 {
		t.Fatalf("recovery %+v, want the 3 logged batches replayed", ri)
	}
	if want, got := ssd.FormatRoot(bisim.Canonicalize(db.Graph())), ssd.FormatRoot(bisim.Canonicalize(db2.Graph())); got != want {
		t.Fatalf("replayed database differs:\n got %s\nwant %s", got, want)
	}
	for _, q := range queries {
		if want, got := canonQuery(t, db, q), canonQuery(t, db2, q); got != want {
			t.Fatalf("query %q differs after replay:\n got %s\nwant %s", q, got, want)
		}
	}
	if id, ok := db2.Graph().OIDOf(movie); !ok || id != "&m1" {
		t.Fatalf("oid lost in replay: %q, %v", id, ok)
	}

	// Checkpoint: the new generation + truncated log still reopens identically.
	if _, err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	must(t, db2.CloseWAL())
	db3, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.CloseWAL()
	if ri := db3.LastRecovery(); ri.Replayed != 0 {
		t.Fatalf("recovery %+v, want nothing left to replay after the checkpoint", ri)
	}
	if want, got := canonQuery(t, db, queries[0]), canonQuery(t, db3, queries[0]); got != want {
		t.Fatal("checkpointed database diverged")
	}
}

// TestConcurrentReadersDuringCommit drives queries, path statements and
// guide reads while a writer commits batches — the snapshot-swap
// concurrency this must survive under -race (see ci.yml).
func TestConcurrentReadersDuringCommit(t *testing.T) {
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(80)))
	// Pre-build structures so commits exercise incremental maintenance.
	db.snapshot().labels()
	db.DataGuide()
	sel, err := db.PrepareCached(`select T from DB.Entry.Movie.Title T`)
	if err != nil {
		t.Fatal(err)
	}
	tags, err := db.PrepareCached(`path: Entry.Tag."tag-value"`)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 4
	const commits = 60
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sel.Exec(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if res.Graph().NumEdges() == 0 {
					t.Error("empty result graph")
					return
				}
				if _, _, err := drainPath(tags); err != nil {
					t.Error(err)
					return
				}
				db.DataGuide().Summary(2, 5)
			}
		}(r)
	}

	g := db.Graph()
	entry := g.LookupFirst(g.Root(), ssd.Sym("Entry"))
	for i := 0; i < commits; i++ {
		b := db.Begin()
		tag := b.AddNode()
		leaf := b.AddNode()
		must(t, b.AddEdge(entry, ssd.Sym("Tag"), tag))
		must(t, b.AddEdge(tag, ssd.Str("tag-value"), leaf))
		must(t, db.Commit(b))
	}
	close(stop)
	wg.Wait()

	if hits, _, err := drainPath(tags); err != nil || len(hits) != commits {
		t.Fatalf("tag values = %d (%v), want %d", len(hits), err, commits)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
