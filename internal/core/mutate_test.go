package core

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bisim"
	"repro/internal/pathexpr"
	"repro/internal/query"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// canonQuery runs a query and returns the canonical byte representation of
// its result value.
func canonQuery(t *testing.T, db *Database, src string) string {
	t.Helper()
	res, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	return ssd.FormatRoot(bisim.Canonicalize(res.Graph()))
}

// TestMutationInvalidatesCaches is the stale-cache regression test: build
// every derived structure, mutate, and verify that queries, browsing
// lookups, the DataGuide, and the planner all reflect the new version.
func TestMutationInvalidatesCaches(t *testing.T) {
	db := FromGraph(workload.Fig1(false))

	const titles = `select T from DB.Entry.Movie.Title T`
	before := canonQuery(t, db, titles)
	// Force every lazy structure on the current snapshot.
	if hits := db.FindString("Casablanca"); len(hits) == 0 {
		t.Fatal("value index found nothing")
	}
	if len(db.Browse(2, 10)) == 0 {
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
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}

	// The planned query (through the incrementally maintained label index)
	// and the naive engine must both see the new edge — and agree.
	after := canonQuery(t, db, titles)
	if after == before {
		t.Fatal("query result unchanged after mutation: stale cache")
	}
	res, err := db.Query(titles)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := query.EvalNaive(query.MustParse(titles), db.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(FromGraph(naive)) {
		t.Fatal("planned and naive engines disagree after mutation")
	}
	// Value index: the new string is findable.
	if hits := db.FindString("Play It Again"); len(hits) != 1 {
		t.Fatalf("FindString after mutation = %v", hits)
	}
	// Old strings still findable (delta didn't clobber shared postings).
	if hits := db.FindString("Casablanca"); len(hits) == 0 {
		t.Fatal("old string lost after mutation")
	}
	// DataGuide: incrementally extended, not the stale pointer.
	if db.DataGuide() == guideBefore {
		t.Fatal("DataGuide not refreshed after mutation")
	}

	// Legacy wholesale edits return fresh handles whose caches restart.
	db2 := db.DeleteEdges(pathexpr.ExactPred{L: ssd.Sym("Title")})
	if got := canonQuery(t, db2, titles); got != "{}" {
		t.Fatalf("DeleteEdges result still has titles: %s", got)
	}
	if hits := db2.FindString("Casablanca"); len(hits) != 0 {
		t.Fatalf("fresh handle served stale value index: %v", hits)
	}
	// And the receiver is untouched.
	if got := canonQuery(t, db, titles); got != after {
		t.Fatal("legacy transformation mutated the receiver")
	}
}

// TestCommitWALReplay is the acceptance test: a WAL written by one process,
// replayed by core.Open + OpenWAL in a fresh process, yields a database
// whose query results are byte-identical via bisim.Canonicalize.
func TestCommitWALReplay(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.ssdg")
	logPath := filepath.Join(dir, "wal")

	queries := []string{
		`select T from DB.Entry.Movie.Title T`,
		`select {Who: D} from DB.Entry.Movie M, M.Director D`,
		`select X from DB._*.Year X`,
	}

	// "Process 1": persist the base, open a WAL, commit batches.
	db := FromGraph(workload.Fig1(false))
	if err := db.Save(base); err != nil {
		t.Fatal(err)
	}
	if err := db.OpenWAL(logPath); err != nil {
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

	// "Process 2": fresh handle from the files alone.
	db2, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.OpenWAL(logPath); err != nil {
		t.Fatal(err)
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

	// Compaction: snapshot + truncated log still reopens identically.
	must(t, db2.CompactWAL(base))
	must(t, db2.CloseWAL())
	db3, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := db3.OpenWAL(logPath); err != nil {
		t.Fatal(err)
	}
	if want, got := canonQuery(t, db, queries[0]), canonQuery(t, db3, queries[0]); got != want {
		t.Fatal("compacted database diverged")
	}
}

// TestConcurrentReadersDuringCommit drives queries, browsing lookups and
// guide reads while a writer commits batches — the snapshot-swap
// concurrency this must survive under -race (see ci.yml).
func TestConcurrentReadersDuringCommit(t *testing.T) {
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(80)))
	// Pre-build structures so commits exercise incremental maintenance.
	db.FindString("nothing")
	db.DataGuide()
	db.Browse(2, 5)

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
				res, err := db.Query(`select T from DB.Entry.Movie.Title T`)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Stats().Nodes == 0 {
					t.Error("empty result graph")
					return
				}
				db.FindString("tag-value")
				db.Browse(2, 5)
				db.IntsGreaterThan(1 << 30)
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
		must(t, db.Apply(b))
	}
	close(stop)
	wg.Wait()

	if hits := db.FindString("tag-value"); len(hits) != commits {
		t.Fatalf("FindString = %d hits, want %d", len(hits), commits)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
