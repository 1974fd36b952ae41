package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/workload"
)

// pagedSeedDir saves the movie workload as a durable directory with one
// snapshot generation, so OpenPathOptions can bind a page store to it.
func pagedSeedDir(t *testing.T, entries int) string {
	t.Helper()
	dir := t.TempDir()
	if err := FromGraph(workload.Movies(workload.DefaultMovieConfig(entries))).SavePath(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// frontEndObs is every read front-end's answer in a canonical, comparable
// form: query results as canonicalized graph text, path results as sorted
// node IDs, datalog results as sorted tuple strings.
type frontEndObs struct {
	selSerial   string
	selParallel string
	pathIDs     []ssd.NodeID
	datalog     []string
	unql        string
}

func observeFrontEnds(t *testing.T, db *Database) frontEndObs {
	t.Helper()
	const sel = `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`
	var o frontEndObs

	db.SetParallelism(1)
	o.selSerial = canonDB(execStmt(t, db, sel))
	db.SetParallelism(4)
	o.selParallel = canonDB(execStmt(t, db, sel))
	db.SetParallelism(1)

	o.pathIDs = pathNodes(t, db, `Entry._.Title._`)

	s, err := db.Prepare(`datalog:
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var rel, tuple string
	for rows.Next() {
		if err := rows.Scan(&rel, &tuple); err != nil {
			t.Fatal(err)
		}
		if rel == "reach" {
			o.datalog = append(o.datalog, tuple)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(o.datalog)

	o.unql = canonDB(execStmt(t, db, `unql: relabel Title to Name`))
	return o
}

func (o frontEndObs) assertEqual(t *testing.T, want frontEndObs) {
	t.Helper()
	if o.selSerial != want.selSerial {
		t.Error("serial select differs between paged and in-memory stores")
	}
	if o.selParallel != want.selParallel {
		t.Error("parallel select differs between paged and in-memory stores")
	}
	if o.selSerial != o.selParallel {
		t.Error("serial and parallel select disagree")
	}
	if fmt.Sprint(o.pathIDs) != fmt.Sprint(want.pathIDs) {
		t.Errorf("path results differ: %d ids vs %d ids", len(o.pathIDs), len(want.pathIDs))
	}
	if fmt.Sprint(o.datalog) != fmt.Sprint(want.datalog) {
		t.Errorf("datalog results differ: %d tuples vs %d tuples", len(o.datalog), len(want.datalog))
	}
	if o.unql != want.unql {
		t.Error("unql transform result differs between paged and in-memory stores")
	}
}

// TestPagedByteIdentity is the satellite cross-check: every front-end must
// produce byte-identical results (under bisim canonicalization) whether the
// snapshot is served from memory or through the paged store, serially and in
// parallel, even with a pool far smaller than the dataset.
func TestPagedByteIdentity(t *testing.T) {
	dir := pagedSeedDir(t, 300)

	mem, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := observeFrontEnds(t, mem)
	if _, ok := mem.PagePoolStats(); ok {
		t.Fatal("default open should not be page-backed")
	}
	if err := mem.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Pool of ~8 pages against a few-hundred-KiB dataset: far under 10% of
	// the data, so the identity holds under real eviction pressure.
	paged, err := OpenPathOptions(dir, Options{PoolBytes: 8 * storage.DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.CloseWAL()
	got := observeFrontEnds(t, paged)
	got.assertEqual(t, want)

	st, ok := paged.PagePoolStats()
	if !ok {
		t.Fatal("paged open did not bind a page store")
	}
	if st.Misses == 0 {
		t.Error("paged run never touched the page file")
	}

	// Traced executions attribute pool activity to the query.
	s, err := paged.PrepareCached(`select {T: T} from DB.Entry.Movie M, M.Title T`)
	if err != nil {
		t.Fatal(err)
	}
	var tr QueryTrace
	rows, err := s.QueryTraced(context.Background(), &tr)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.PoolHits+tr.PoolMisses == 0 {
		t.Error("query trace on a paged snapshot recorded no pool activity")
	}
}

// TestPagedTinyPoolStress drives the parallel executor through a two-page
// pool — essentially every touch evicts — and checks both the answers and
// that the resident set stays bounded by the budget (modulo transiently
// pinned frames, which the accessor releases at morsel boundaries).
func TestPagedTinyPoolStress(t *testing.T) {
	dir := pagedSeedDir(t, 200)

	mem, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := observeFrontEnds(t, mem)
	if err := mem.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	paged, err := OpenPathOptions(dir, Options{PoolBytes: 2 * storage.DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.CloseWAL()
	got := observeFrontEnds(t, paged)
	got.assertEqual(t, want)

	st, ok := paged.PagePoolStats()
	if !ok {
		t.Fatal("paged open did not bind a page store")
	}
	if st.Evictions == 0 {
		t.Error("two-page pool saw no evictions")
	}
	if st.PinnedPages != 0 {
		t.Errorf("%d pages still pinned after queries finished", st.PinnedPages)
	}
	if limit := int64(2 * storage.DefaultPageSize); st.ResidentBytes > limit {
		t.Errorf("resident %d bytes exceeds the %d-byte budget with nothing pinned", st.ResidentBytes, limit)
	}
}

// TestPagedRecovery covers the page-file lifecycle across restarts: a
// checkpoint writes the generation's page image, reopening binds to it, and
// a missing or torn image is rebuilt from the snapshot rather than trusted.
func TestPagedRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPathOptions(dir, Options{PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh directory checkpoints generation 1 immediately so the paged
	// read path exists from the first query.
	if _, ok := db.PagePoolStats(); !ok {
		t.Fatal("fresh paged open did not bind a page store")
	}
	commitN(t, db, 0, 5)
	info, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want := canonDB(db)
	if _, err := os.Stat(filepath.Join(dir, pageName(info.Seq))); err != nil {
		t.Fatalf("checkpoint %d left no page image: %v", info.Seq, err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen binds the existing image without replay.
	re, err := OpenPathOptions(dir, Options{PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := canonDB(re); got != want {
		t.Fatalf("reopened state differs:\nwant %s\ngot  %s", want, got)
	}
	if _, ok := re.PagePoolStats(); !ok {
		t.Fatal("reopen did not bind a page store")
	}
	if err := re.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// A lost page image must be rebuilt from the snapshot.
	pagePath := filepath.Join(dir, pageName(re.SnapshotSeq()))
	if err := os.Remove(pagePath); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenPathOptions(dir, Options{PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := canonDB(re2); got != want {
		t.Fatalf("state after page-image rebuild differs:\nwant %s\ngot  %s", want, got)
	}
	if _, err := os.Stat(pagePath); err != nil {
		t.Fatalf("reopen did not rebuild the page image: %v", err)
	}
	if err := re2.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// A torn image (truncated write) is detected and rebuilt, not served.
	if err := os.Truncate(pagePath, 100); err != nil {
		t.Fatal(err)
	}
	re3, err := OpenPathOptions(dir, Options{PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re3.CloseWAL()
	if got := canonDB(re3); got != want {
		t.Fatalf("state after torn-image rebuild differs:\nwant %s\ngot  %s", want, got)
	}
	execStmt(t, re3, `select {N: X} from DB._ X`)
}

// TestPagedRebuildsDamagedNodeCount: a page image whose header node count
// was overwritten with 0xffffffff must be rejected and rebuilt from the
// snapshot at open, and the paged database must then answer exactly as an
// in-memory open of the same directory does.
func TestPagedRebuildsDamagedNodeCount(t *testing.T) {
	dir := pagedSeedDir(t, 100)
	mem, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := observeFrontEnds(t, mem)
	if err := mem.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db, err := OpenPathOptions(dir, Options{PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pagePath := filepath.Join(dir, pageName(db.SnapshotSeq()))
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(pagePath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, 16); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	paged, err := OpenPathOptions(dir, Options{PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.CloseWAL()
	if _, ok := paged.PagePoolStats(); !ok {
		t.Fatal("reopen did not bind a page store")
	}
	observeFrontEnds(t, paged).assertEqual(t, want)
}

// TestPagedCommitThenCheckpoint pins down the freshness contract: commits
// republish an un-paged snapshot (queries fall back to the in-memory graph,
// never a stale page image), and the next checkpoint re-binds the paged
// read path at the new generation.
func TestPagedCommitThenCheckpoint(t *testing.T) {
	dir := pagedSeedDir(t, 50)
	db, err := OpenPathOptions(dir, Options{PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()

	if _, ok := db.PagePoolStats(); !ok {
		t.Fatal("paged open did not bind a page store")
	}
	if _, err := db.MutateScriptSeq("addnode; addedge 0 999 $0"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.PagePoolStats(); ok {
		t.Fatal("post-commit snapshot should fall back to memory until the next checkpoint")
	}
	if ids := pathNodes(t, db, `999`); len(ids) != 1 {
		t.Fatalf("fresh commit invisible to path query: got %d hits", len(ids))
	}

	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.PagePoolStats(); !ok {
		t.Fatal("checkpoint did not re-bind the paged read path")
	}
	if ids := pathNodes(t, db, `999`); len(ids) != 1 {
		t.Fatalf("committed edge missing from paged store: got %d hits", len(ids))
	}
}
