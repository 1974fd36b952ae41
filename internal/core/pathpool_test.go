package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/pathexpr"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// drainPath runs a path statement to exhaustion and returns the sorted node
// set together with the graph the Rows pinned.
func drainPath(s *Stmt) ([]ssd.NodeID, *ssd.Graph, error) {
	rows, err := s.Query(context.Background())
	if err != nil {
		return nil, nil, err
	}
	defer rows.Close()
	out := []ssd.NodeID{}
	for rows.Next() {
		var n ssd.NodeID
		if err := rows.Scan(&n); err != nil {
			return nil, nil, err
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, rows.Graph(), rows.Err()
}

// insertMovie commits one Entry.Movie{Title: "<title>"}: four new nodes, so
// successive snapshots outgrow whatever a pooled traversal was sized for.
func insertMovie(db *Database, title string) error {
	b := db.Begin()
	entry, movie, titleNode, leaf := b.AddNode(), b.AddNode(), b.AddNode(), b.AddNode()
	for _, e := range []struct {
		from ssd.NodeID
		l    ssd.Label
		to   ssd.NodeID
	}{
		{db.Graph().Root(), ssd.Sym("Entry"), entry},
		{entry, ssd.Sym("Movie"), movie},
		{movie, ssd.Sym("Title"), titleNode},
		{titleNode, ssd.Str(title), leaf},
	} {
		if err := b.AddEdge(e.from, e.l, e.to); err != nil {
			return err
		}
	}
	return db.Commit(b)
}

// TestConcurrentPathStmtDuringCommits: one cached path statement executed
// from four goroutines while a fifth commits inserts. Every execution draws
// a pooled traversal last used on some other snapshot (possibly abandoned
// mid-run), and must still return exactly what a fresh evaluation computes
// on the snapshot its Rows pinned. Run under -race.
func TestConcurrentPathStmtDuringCommits(t *testing.T) {
	const src = `Entry.Movie.Title._`
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(200)))
	s, err := db.PrepareCached("path: " + src)
	if err != nil {
		t.Fatal(err)
	}
	const (
		readers = 4
		rounds  = 40
		commits = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			if err := insertMovie(db, fmt.Sprintf("Sequel %d", i)); err != nil {
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
				if i%5 == 4 { // abandon a run midway: its scratch goes back dirty
					rows, err := s.Query(context.Background())
					if err != nil {
						errs <- err
						return
					}
					rows.Next()
					rows.Close()
					continue
				}
				got, g, err := drainPath(s)
				if err != nil {
					errs <- err
					return
				}
				want := pathexpr.MustCompile(src).Eval(g, g.Root())
				if !reflect.DeepEqual(got, append([]ssd.NodeID{}, want...)) {
					errs <- fmt.Errorf("round %d: pooled traversal returned %d nodes, fresh evaluation %d", i, len(got), len(want))
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

// TestPathStmtAllocGuard: a warmed path statement allocates per execution,
// not per graph node — ten drains together stay under the size of a single
// 4-byte-per-node stamp array, of which the dense representation allocated
// one per reached DFA state per execution.
func TestPathStmtAllocGuard(t *testing.T) {
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(2000)))
	s, err := db.Prepare(`path: Entry.Movie.References.Movie.Director._`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		rows, err := s.Query(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		rows.Close()
		if n == 0 {
			t.Fatal("no rows")
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*db.Graph().NumNodes())
	if got >= limit {
		t.Fatalf("10 warmed executions allocated %d bytes, want < %d (4 × NumNodes)", got, limit)
	}
}

// TestPooledTraversalDoesNotPinSnapshot: once its Rows is closed, a pooled
// traversal holds no reference to the graph it ran on, so a superseded
// snapshot is collectable while the statement sits idle.
func TestPooledTraversalDoesNotPinSnapshot(t *testing.T) {
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(50)))
	s, err := db.Prepare(`path: Entry.Movie.Title`)
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	func() {
		_, g, err := drainPath(s)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(g, func(*ssd.Graph) { close(collected) })
	}()
	if err := insertMovie(db, "supersede"); err != nil {
		t.Fatal(err)
	}
	defer runtime.KeepAlive(s) // the statement, and so its pool, outlives the check
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
	}
	t.Fatal("the superseded snapshot's graph was never collected: something idle still references it")
}

// TestSizeMatchesStats: the O(1) totals equal the full walk's on a graph
// with unreachable nodes and across add / delete / relabel commits.
func TestSizeMatchesStats(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(30))
	orphan := g.AddNodes(3) // unreachable, with an edge between them
	g.AddEdge(orphan, ssd.Sym("lost"), orphan+1)
	db := FromGraph(g)
	check := func(when string) {
		t.Helper()
		st := db.Graph().ComputeStats()
		if n, e := db.Size(); n != st.Nodes || e != st.Edges {
			t.Fatalf("%s: Size = (%d, %d), Stats = (%d, %d)", when, n, e, st.Nodes, st.Edges)
		}
	}
	check("initial")
	if err := insertMovie(db, "added"); err != nil {
		t.Fatal(err)
	}
	check("after add")
	root := db.Graph().Root()
	entry := db.Graph().LookupFirst(root, ssd.Sym("Entry"))
	for _, script := range []string{
		fmt.Sprintf("deledge %d Entry %d", root, entry),
		fmt.Sprintf("relabel %d lost found", orphan),
		fmt.Sprintf("addnode\naddedge %d again $0\ndeledge %d again $0", root, root),
	} {
		if _, err := db.MutateScriptSeq(script); err != nil {
			t.Fatalf("%q: %v", script, err)
		}
		check("after " + script)
	}
}
