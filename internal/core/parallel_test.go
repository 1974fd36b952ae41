package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ssd"
	"repro/internal/workload"
)

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

// TestStmtQueryParallelMatchesSerial: with a per-db parallelism default
// set, Stmt.Query must stream exactly the rows the serial engine streams,
// in the same order, while drawing all worker plans from the pool.
func TestStmtQueryParallelMatchesSerial(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(300))
	const src = `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`

	serialDB := FromGraph(g)
	parDB := FromGraph(g)
	parDB.SetParallelism(4)
	if got := parDB.Parallelism(); got != 4 {
		t.Fatalf("Parallelism() = %d", got)
	}

	collect := func(db *Database) []string {
		t.Helper()
		s, err := db.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		// Two rounds so the second draws the whole plan set from the pool.
		for round := 0; round < 2; round++ {
			out = out[:0]
			rows, err := s.Query(context.Background(), P("who", "Allen"))
			if err != nil {
				t.Fatal(err)
			}
			for rows.Next() {
				var m, tt, a string
				if err := rows.Scan(&m, &tt, &a); err != nil {
					t.Fatal(err)
				}
				out = append(out, m+"|"+tt+"|"+a)
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			rows.Close()
		}
		return out
	}
	want := collect(serialDB)
	got := collect(parDB)
	if len(want) == 0 {
		t.Fatal("no rows in serial baseline")
	}
	if len(got) != len(want) {
		t.Fatalf("parallel rows = %d, serial = %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %q != %q", i, got[i], want[i])
		}
	}
}

// TestParallelRowsErrCancellation: Rows.Err inherits the cursor error fix
// through the parallel backend — a cancelled context is reported, never a
// clean exhaustion.
func TestParallelRowsErrCancellation(t *testing.T) {
	db := FromGraph(workload.Movies(workload.DefaultMovieConfig(2000)))
	db.SetParallelism(3)
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
	// Err after Close still reports it, even though Close returned the
	// plans (and their executors) to the pool for reuse.
	rows.Close()
	if rows.Err() != context.Canceled {
		t.Fatalf("Rows.Err after Close = %v, want context.Canceled", rows.Err())
	}
}

// TestConcurrentParallelStmtQueryDuringCommits is the -race stress for the
// pooled parallel path: several goroutines run one shared statement with
// parallelism on while a writer publishes commits. Every execution must
// see one consistent snapshot.
func TestConcurrentParallelStmtQueryDuringCommits(t *testing.T) {
	db := FromGraph(workload.Fig1(false))
	db.SetParallelism(3)
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
