package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/workload"
)

// benchSel is the sel statement of bench/ssdload's read mix: a root chain
// whose interior label (TV-Show) is rarer than its first (Entry), which the
// planner serves from the label index and verifies backward.
const benchSel = `select {T: T} from DB.Entry.TV-Show S, S.Title T, S.Episode E where E > $lo`

func explainStmt(t *testing.T, db *Database, src string) string {
	t.Helper()
	s, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Explain()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoresPlanBackwardAlike: the in-memory graph and a page store behind
// a tiny pool plan the benchmark's sel statement identically, with a
// backward index atom, and answer it identically.
func TestStoresPlanBackwardAlike(t *testing.T) {
	dir := pagedSeedDir(t, 300)
	mem, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := explainStmt(t, mem, benchSel)
	wantSel := canonDB(execStmt(t, mem, benchSel, P("lo", 1_960_000)))
	if err := mem.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, "access=index-backward") {
		t.Fatalf("in-memory plan has no backward atom:\n%s", want)
	}

	paged, err := OpenPathOptions(dir, Options{PoolBytes: 2 * storage.DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.CloseWAL()
	if _, ok := paged.PagePoolStats(); !ok {
		t.Fatal("open did not bind a page store")
	}
	if got := explainStmt(t, paged, benchSel); got != want {
		t.Errorf("paged plan differs from the in-memory one:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got := canonDB(execStmt(t, paged, benchSel, P("lo", 1_960_000))); got != wantSel {
		t.Error("paged answer differs from the in-memory one")
	}
}

// TestPooledBackwardPlanSeesCommits: a cached statement whose plan verifies
// backward keeps answering for the current snapshot after commits that
// add an Entry and delete one. Each commit moves the Entry postings, so a
// by-target view carried over from the previous snapshot would drop the
// new show or keep the deleted one.
func TestPooledBackwardPlanSeesCommits(t *testing.T) {
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(200)))
	const src = `select {T: T} from DB.Entry.TV-Show S, S.Title T`
	if plan := explainStmt(t, db, src); !strings.Contains(plan, "access=index-backward") {
		t.Fatalf("plan has no backward atom:\n%s", plan)
	}
	s, err := db.PrepareCached(src)
	if err != nil {
		t.Fatal(err)
	}
	shows := stmtRows(t, s)
	if shows == 0 {
		t.Fatal("no TV shows in the data")
	}

	b := db.Begin()
	entry, show, title, value := b.AddNode(), b.AddNode(), b.AddNode(), b.AddNode()
	for _, e := range []struct {
		from  ssd.NodeID
		label ssd.Label
		to    ssd.NodeID
	}{
		{db.Graph().Root(), ssd.Sym("Entry"), entry},
		{entry, ssd.Sym("TV-Show"), show},
		{show, ssd.Sym("Title"), title},
		{title, ssd.Str("Added Show"), value},
	} {
		if err := b.AddEdge(e.from, e.label, e.to); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
	if got := stmtRows(t, s); got != shows+1 {
		t.Fatalf("after adding a show: %d rows, want %d", got, shows+1)
	}

	g := db.Graph()
	var gone ssd.NodeID = ssd.InvalidNode
	for _, e := range g.Out(g.Root()) {
		if e.Label == ssd.Sym("Entry") && e.To != entry && g.LookupFirst(e.To, ssd.Sym("TV-Show")) != ssd.InvalidNode {
			gone = e.To
			break
		}
	}
	b = db.Begin()
	if err := b.DeleteEdge(g.Root(), ssd.Sym("Entry"), gone); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
	if got := stmtRows(t, s); got != shows {
		t.Fatalf("after deleting a show's entry: %d rows, want %d", got, shows)
	}
}

// TestBackwardPlanRetainsLittleHeap: running the benchmark's sel statement
// on Movies(20000) keeps under 5 MiB more heap alive than planning it did.
// Verifying against the label index needs no reverse adjacency, which for
// this graph is larger than the graph itself.
func TestBackwardPlanRetainsLittleHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds Movies(20000)")
	}
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(20000)))
	s, err := db.Prepare(benchSel)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Explain() // builds the label index and the statistics
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "access=index-backward") {
		t.Fatalf("plan has no backward atom:\n%s", plan)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if n := stmtRows(t, s, P("lo", 1_960_000)); n == 0 {
		t.Fatal("sel returned no rows")
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	runtime.KeepAlive(s)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 5<<20 {
		t.Fatalf("running sel retained %.1f MiB of heap, want under 5 MiB", float64(grew)/(1<<20))
	}
}
