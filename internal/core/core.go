// Package core is the serving facade of the library: a Database handle over
// one semistructured graph with a small API —
//
//   - loading and saving (text syntax, binary files, durable directories of
//     snapshot generations plus a write-ahead log),
//   - prepared statements in four front-ends — select-from-where queries
//     with path expressions, bare path expressions, graph datalog and the
//     UnQL restructuring commands (§3) — through Prepare/PrepareCached and
//     Stmt.Query/Exec/Explain/ExplainAnalyze,
//   - versioned updates through the internal/mutate write path: batched
//     mutations, a write-ahead log, MVCC snapshots and WAL-shipping
//     replication,
//   - the DataGuide of the current snapshot (§5).
//
// The paper's other tools — value indexes for the §1.3 browsing questions,
// schemas and conformance (§5), bisimulation equality (§2), relational and
// OEM exchange (§1.2), custom structural recursion — are leaf packages
// called on Graph(): index.BuildValueIndex, schema.Infer, bisim.Equal,
// relstore.EncodeRelational, oem.FromGraph, unql.GExt.
//
// A Database is a multi-version handle: readers always see one immutable
// published snapshot (graph plus the derived structures the serving path
// reads — label index, statistics, and a DataGuide once built), while
// Begin/Commit install new snapshots atomically under a single-writer
// lock, maintaining those structures incrementally. Transform statements
// (Stmt.Exec) return fresh handles with fresh caches, so no entry point can
// ever serve derived structures computed for a different graph version.
package core

import (
	"container/list"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Database is a handle over one semistructured graph. Handles are safe for
// concurrent use: every read method runs against the immutable snapshot
// published at its start, and writers swap in whole new snapshots — a query
// never sees a half-applied batch, and cached auxiliary structures can
// never outlive the graph version they were built from.
type Database struct {
	snap    atomic.Pointer[snapshot]
	writeMu sync.Mutex // serializes Begin-to-Commit writers and WAL state
	wal     *mutate.WAL

	// Statement cache: the serving layer routes through PrepareCached, and
	// this keeps its repeat executions on the prepare-once path. Entries
	// hold parsed ASTs and per-snapshot plan pools; a commit does not evict
	// them — each Stmt re-plans lazily when it notices the snapshot changed.
	// Eviction is LRU (stmtLRU front = most recently used), so a hot query
	// survives any number of distinct cold ones passing through.
	stmtMu  sync.Mutex
	stmts   map[string]*list.Element // value: *stmtEntry
	stmtLRU list.List

	// walRO mirrors wal for lock-free readers (WALSize): monitoring must
	// not queue behind a writer holding writeMu through a log truncation.
	walRO atomic.Pointer[mutate.WAL]

	// Durable-directory state (see durable.go). dir is empty unless the
	// database was opened with OpenPath; snapSeq is the newest snapshot
	// generation on disk and recovery describes what open recovered.
	// dirLock holds the directory's advisory file lock for the life of the
	// handle. ckptMu serializes whole checkpoints against each other
	// without blocking the writer: only the brief pin and the log
	// truncation take writeMu.
	dir      string
	snapSeq  atomic.Uint64 // atomic: health endpoints read it mid-checkpoint
	recovery RecoveryInfo
	dirLock  *os.File
	ckptMu   sync.Mutex

	// Replication position (see repl.go). replSeq counts batches committed
	// since the durable directory's birth (or since handle creation for
	// non-durable databases); checkpoints persist it and recovery restores
	// it, so it is comparable across restarts and across the replicas that
	// boot from this database's snapshots. seqCh is the broadcast channel
	// commit closes so read-your-writes waiters and replication streams
	// wake promptly; seqMu guards its swap.
	replSeq atomic.Uint64
	seqMu   sync.Mutex
	seqCh   chan struct{}

	// Out-of-core mode (OpenPathOptions with PoolBytes > 0). poolBytes is the
	// buffer-pool budget every opened page store gets; pageStores tracks every
	// store opened over the handle's life (guarded by writeMu) so CloseWAL can
	// release their file handles — superseded stores stay open until then
	// because in-flight Rows may still read through them.
	poolBytes  int64
	pageStores []*storage.PageStore
}

// stmtCacheMax bounds the statement cache.
const stmtCacheMax = 256

// stmtEntry is one LRU cache slot.
type stmtEntry struct {
	src string
	s   *Stmt
}

// PrepareCached returns a shared prepared statement for src, preparing and
// caching it on first use in the database's bounded LRU statement cache.
// It is the entry point for serving layers (ssdserve keys its request
// statements by query text through it). Shared Stmts are safe for
// concurrent use; unlike Prepare, the returned statement may be shared with
// other callers.
//
// The parse/plan happens outside the cache lock; when two goroutines race
// to prepare the same text, the first insert wins and the loser adopts it,
// so the cache never holds two Stmts for one key.
func (db *Database) PrepareCached(src string) (*Stmt, error) {
	db.stmtMu.Lock()
	if e, ok := db.stmts[src]; ok {
		db.stmtLRU.MoveToFront(e)
		s := e.Value.(*stmtEntry).s
		db.stmtMu.Unlock()
		obsStmtHits.Inc()
		return s, nil
	}
	db.stmtMu.Unlock()
	obsStmtMisses.Inc()
	s, err := db.Prepare(src)
	if err != nil {
		return nil, err
	}
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	if e, ok := db.stmts[src]; ok { // lost the race: adopt the winner
		db.stmtLRU.MoveToFront(e)
		return e.Value.(*stmtEntry).s, nil
	}
	if db.stmts == nil {
		db.stmts = make(map[string]*list.Element, stmtCacheMax)
	}
	for len(db.stmts) >= stmtCacheMax {
		oldest := db.stmtLRU.Back()
		db.stmtLRU.Remove(oldest)
		delete(db.stmts, oldest.Value.(*stmtEntry).src)
		obsStmtEvictions.Inc()
	}
	db.stmts[src] = db.stmtLRU.PushFront(&stmtEntry{src: src, s: s})
	return s, nil
}

// StmtCacheLen returns the number of statements currently held by the LRU
// statement cache — the /healthz "stmt_cache_size" figure.
func (db *Database) StmtCacheLen() int {
	db.stmtMu.Lock()
	n := len(db.stmts)
	db.stmtMu.Unlock()
	return n
}

// invalidateStmtPlans drops every cached statement's pooled plans after a
// snapshot swap, releasing the old graph version promptly. In-flight Rows
// keep their checked-out plan and pinned snapshot until Close, by design.
func (db *Database) invalidateStmtPlans() {
	db.stmtMu.Lock()
	for _, e := range db.stmts {
		e.Value.(*stmtEntry).s.invalidate()
	}
	db.stmtMu.Unlock()
}

// snapshot is one immutable graph version with its lazily built derived
// structures. The graph never changes after the snapshot is published; the
// mutex guards only the lazy builds.
type snapshot struct {
	g *ssd.Graph

	// paged, when non-nil, is the out-of-core page store this snapshot's
	// read paths go through instead of g. It is bound at snapshot
	// construction only (OpenPath recovery, or the post-checkpoint republish)
	// and never mutated afterwards — a snapshot is either page-backed for its
	// whole life or not at all, so plan pools keyed by snapshot pointer can
	// never mix stores. Snapshots published by commits start un-paged (the
	// page image on disk describes the previous generation) and fall back to
	// g until the next checkpoint cuts a matching page file. Result
	// materialization (select instantiation, transforms) always uses g: the
	// in-memory graph is retained alongside the page store in this design —
	// the pool bounds hot-path working memory, not total residency.
	paged *storage.PageStore

	mu      sync.Mutex
	derived // guarded by mu
}

// derived holds the structures the serving path reads beside a graph
// version. A nil member has not been built; it is built lazily on first
// use, or never (the DataGuide is only ever built on demand).
type derived struct {
	labelIx *index.LabelIndex
	guide   *dataguide.Guide
	stats   *stats.Stats
}

// built returns the structures s has built so far.
func (s *snapshot) built() derived {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.derived
}

// apply carries d across one batch that turned the previous graph into g
// with result res — the one rule commits and recovery replay share. Each
// member is maintained from the batch's delta; a member never built stays
// nil, and a DataGuide the delta cannot repair (a moved root, or deletes in
// the accessible region) is dropped for a lazy rebuild.
func (d derived) apply(g *ssd.Graph, res mutate.Result) derived {
	if d.labelIx != nil {
		d.labelIx = d.labelIx.Apply(res.Delta)
	}
	if d.stats != nil {
		d.stats = d.stats.Apply(res.Delta)
	}
	if d.guide != nil {
		ok := false
		if !res.RootChanged {
			d.guide, ok = d.guide.ApplyDelta(g, res.Delta, 0)
		}
		if !ok {
			d.guide = nil
		}
	}
	return d
}

// image builds the storage image of s for a snapshot file: the label index
// and statistics the planner reads are force-built so the generation
// restores a query-ready database; the DataGuide (potentially exponential)
// is included only if s already built it.
func (s *snapshot) image() *storage.Snapshot {
	labels, st := s.labels(), s.statistics()
	return &storage.Snapshot{Graph: s.g, Labels: labels, Stats: st, Guide: s.built().guide}
}

// store returns the snapshot's read store: the paged store when this
// generation is page-backed, the in-memory graph otherwise. Query planning,
// traversal, index builds and datalog EDB extraction all go through it.
func (s *snapshot) store() ssd.GraphStore {
	if s.paged != nil {
		return s.paged
	}
	return s.g
}

// FromGraph wraps an existing graph. The graph must not be mutated directly
// afterwards; use Begin/Commit.
func FromGraph(g *ssd.Graph) *Database {
	db := &Database{}
	db.snap.Store(&snapshot{g: g})
	return db
}

// snapshot returns the current published snapshot. Callers use one snapshot
// for a whole operation; later commits do not affect it.
func (db *Database) snapshot() *snapshot { return db.snap.Load() }

// ParseText loads a database from the text syntax.
func ParseText(src string) (*Database, error) {
	g, err := ssd.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromGraph(g), nil
}

// Open reads a database from a binary file written by Save.
func Open(path string) (*Database, error) {
	g, err := storage.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromGraph(g), nil
}

// Save writes the database to a binary file, atomically: a crash leaves
// either the previous file or the complete new one.
func (db *Database) Save(path string) error { return storage.WriteFile(path, db.snapshot().g) }

// Graph exposes the underlying graph of the current snapshot (read-only by
// convention).
func (db *Database) Graph() *ssd.Graph { return db.snapshot().g }

// Format renders the database in the text syntax.
func (db *Database) Format() string { return ssd.FormatRoot(db.snapshot().g) }

// Size returns the node and edge totals of the current snapshot in O(1):
// the node count is the graph's, the edge count is carried by the
// cardinality statistics every commit maintains incrementally (built by one
// scan on the first call over a snapshot that never had them).
func (db *Database) Size() (nodes, edges int) {
	snap := db.snapshot()
	return snap.g.NumNodes(), snap.statistics().Edges()
}

// ---------------------------------------------------------------------------
// Mutation: the write path (internal/mutate)

// Begin starts a mutation batch against the current snapshot. Build it up
// with the Batch methods, then hand it to Commit. Batches from
// other handles (or from before an intervening commit) that allocate nodes
// are rejected at apply time.
func (db *Database) Begin() *mutate.Batch { return mutate.NewBatch(db.snapshot().g) }

// Commit logs the batch to the WAL of a durable database (OpenPath) and
// then publishes it; once Commit returns, the batch survives a crash.
// Readers keep querying the previous snapshot until the new one is
// published atomically; they never observe a half-applied batch.
//
//ssd:locks writeMu
func (db *Database) Commit(b *mutate.Batch) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return db.commitLocked(b)
}

// commitLocked applies, logs, and publishes one batch. The caller holds
// writeMu: the WAL append and the snapshot swap must not interleave with
// another writer.
//
//ssd:requires writeMu
func (db *Database) commitLocked(b *mutate.Batch) error {
	start := time.Now()
	if db.dir != "" && db.wal == nil {
		// A directory-backed database without its log is closed: accepting
		// the commit would publish a state no generation or log holds, and
		// the next OpenPath would silently drop it.
		return fmt.Errorf("core: database is closed")
	}
	old := db.snapshot()
	g2, res, err := mutate.ApplyCOW(old.g, b)
	if err != nil {
		return err
	}
	// Log before publishing: a crash after Append replays to a superset of
	// what readers saw, never a subset.
	if db.wal != nil {
		if err := db.wal.Append(b); err != nil {
			return err
		}
	}
	db.publish(&snapshot{g: g2, derived: old.built().apply(g2, res)})
	db.advanceSeq(1)
	obsCommitDur.Observe(time.Since(start))
	obsCommits.Inc()
	return nil
}

// publish installs ns as the snapshot readers see and drops every cached
// statement's plans compiled against its predecessor.
func (db *Database) publish(ns *snapshot) {
	db.snap.Store(ns)
	db.invalidateStmtPlans()
}

// CloseWAL detaches and closes the write-ahead log, if one is open. On a
// directory-backed database this is the close operation: it also releases
// the directory lock, letting another process OpenPath it.
//
//ssd:locks writeMu
func (db *Database) CloseWAL() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.dirLock != nil {
		db.dirLock.Close() // releases the advisory lock
		db.dirLock = nil
	}
	for _, ps := range db.pageStores {
		ps.Close()
	}
	db.pageStores = nil
	if db.wal == nil {
		return nil
	}
	err := db.wal.Close()
	db.wal = nil
	db.walRO.Store(nil)
	return err
}

// PagePoolStats returns the buffer-pool counters of the current snapshot's
// page store: hits, misses, evictions, resident and pinned bytes. ok=false
// when the current snapshot is not page-backed (in-memory database, paging
// disabled, or a post-commit snapshot awaiting its next checkpoint).
func (db *Database) PagePoolStats() (storage.PoolStats, bool) {
	if ps := db.snapshot().paged; ps != nil {
		return ps.Stats(), true
	}
	return storage.PoolStats{}, false
}

// planOptions assembles the planner inputs from one snapshot, so the plan's
// cached structures always describe the same graph version it will run on.
func (s *snapshot) planOptions() query.PlanOptions {
	label := s.labels()
	st := s.statistics()
	// The guide only if already built; never forced.
	return query.PlanOptions{Label: label, Guide: s.built().guide, Stats: st}
}

// statistics returns the snapshot's cardinality statistics, building them on
// first use. Commits maintain an already-built Stats incrementally (see
// derived.apply), and durable recovery restores them from the snapshot file's
// stats section, so in steady state this never rescans the graph.
func (s *snapshot) statistics() *stats.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats == nil {
		s.stats = stats.Build(s.g)
	}
	return s.stats
}

func (s *snapshot) labels() *index.LabelIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.labelIx == nil {
		s.labelIx = index.BuildLabelIndex(s.g)
	}
	return s.labelIx
}

// DataGuide returns the strong DataGuide of the current snapshot, building
// it on first use. Commits extend an already-built guide incrementally.
func (db *Database) DataGuide() *dataguide.Guide {
	s := db.snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.guide == nil {
		s.guide = dataguide.MustBuild(s.g)
	}
	return s.guide
}

// Describe returns a one-line summary for CLI output. It walks every node
// and edge; callers that only need the two totals use Size.
func (db *Database) Describe() string {
	s := db.snapshot().g.ComputeStats()
	return fmt.Sprintf("%d nodes, %d edges, %d distinct labels, %d leaves",
		s.Nodes, s.Edges, s.DistinctLabel, s.Leaves)
}
