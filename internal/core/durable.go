package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/mutate"
	"repro/internal/ssd"
	"repro/internal/storage"
)

// This file is the durable face of a Database: a directory holding
// checkpointed snapshot generations plus one write-ahead log.
//
//	dir/
//	  snap-<seq>.ssds   snapshot generations (storage snapshot format)
//	  wal.log           the WAL, bound by fingerprint to one generation
//
// OpenPath recovers the newest valid generation and replays only the log
// tail past it; Checkpoint writes the next generation from a pinned MVCC
// snapshot — without blocking readers or the writer — and then truncates
// exactly the log prefix the new generation folded in, under the writer
// lock, so a commit can never land between snapshot publish and log
// truncation and be silently dropped.
//
// Crash matrix (why every window is safe):
//
//   - during snapshot write: the temp file never got renamed; OpenPath
//     ignores it and recovers from the previous generation + the full log.
//   - between rename and truncation: the newest snapshot names the log's
//     old binding (WALBaseFP) and how many of its batches it already holds
//     (Applied); OpenPath skips that prefix, replays the tail, and
//     completes the interrupted truncation.
//   - during log truncation: the rewrite goes through temp+rename, so the
//     log is either still the old one (previous case) or fully truncated.
//   - after truncation: the normal case — snapshot fingerprint and log
//     binding agree; replay everything in the log.

const (
	walFile    = "wal.log"
	lockFile   = "LOCK"
	snapSuffix = ".ssds"
	pageSuffix = ".ssdp"
)

// lockDir takes the directory's advisory lock (flock on dir/LOCK,
// non-blocking). Exactly one process may hold a durable directory open:
// two writers appending to one log at independent offsets would interleave
// frames into a tail the next open silently truncates, and a checkpoint in
// one process would rewrite the log out from under the other. The lock is
// released by closing the returned file (CloseWAL, or process death — so
// a crash never leaves a stale lock).
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: %s is in use by another process: %w", dir, err)
	}
	return f, nil
}

func snapName(seq uint64) string { return fmt.Sprintf("snap-%016d%s", seq, snapSuffix) }

// pageName is the DFS-clustered page image derived from snap-<seq>.ssds —
// same sequence number, page-store format (see storage.WritePageFile).
func pageName(seq uint64) string { return fmt.Sprintf("pages-%016d%s", seq, pageSuffix) }

// snapFile is one snapshot generation found on disk.
type snapFile struct {
	path string
	seq  uint64
}

// snapshotFiles lists the snapshot generations in dir, newest first.
// Temp files from interrupted writes do not match and are ignored.
func snapshotFiles(dir string) ([]snapFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []snapFile
	for _, e := range ents {
		name := e.Name()
		var seq uint64
		if n, err := fmt.Sscanf(name, "snap-%d"+snapSuffix, &seq); n != 1 || err != nil {
			continue
		}
		if name != snapName(seq) { // reject snap-1.ssds.tmp-style stragglers
			continue
		}
		out = append(out, snapFile{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out, nil
}

// PathInitialized reports whether dir already holds a durable database —
// a snapshot generation or a write-ahead log. Serving layers use it to
// decide between seeding a fresh directory (SavePath) and opening an
// existing one (OpenPath).
func PathInitialized(dir string) (bool, error) {
	cands, err := snapshotFiles(dir)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if len(cands) > 0 {
		return true, nil
	}
	if _, err := os.Stat(filepath.Join(dir, walFile)); err == nil {
		return true, nil
	}
	return false, nil
}

// RecoveryInfo reports what OpenPath recovered: which snapshot generation
// seeded the database, how many logged batches were already part of it
// (skipped), and how many were replayed on top — the probe recovery tests
// use to assert that a restart after a checkpoint pays only for the tail.
type RecoveryInfo struct {
	SnapshotPath string // "" when the directory had no snapshot yet
	SnapshotSeq  uint64
	Skipped      int // batches dropped: already folded into the snapshot
	Replayed     int // batches applied on top of the snapshot
}

// Options configures OpenPathOptions.
type Options struct {
	// PoolBytes > 0 opens the database out-of-core: read paths go through a
	// paged store over the generation's DFS-clustered page file
	// (pages-<seq>.ssdp, rebuilt from the recovered graph when missing or
	// torn), with a buffer pool holding about PoolBytes of page bytes: the
	// budget charges whole pages as read from the file, not the edges
	// decoded from them, and is exceeded only while every resident frame is
	// pinned. 0 keeps the classic all-in-memory read path.
	PoolBytes int64
}

// OpenPath opens (creating if necessary) a durable database directory. It
// loads the newest snapshot generation that decodes cleanly — falling back
// past torn or corrupt files to the previous generation — then opens the
// WAL and replays only the batches past the snapshot. A brand-new
// directory starts as an empty database whose first commit is durable
// immediately.
//
// The returned database logs every Commit to the directory's WAL; call
// Checkpoint (or let a serving layer's background checkpointer do it) to
// bound the log and the next open's replay work.
func OpenPath(dir string) (*Database, error) { return OpenPathOptions(dir, Options{}) }

// OpenPathOptions is OpenPath with explicit options (see Options).
//
// With PoolBytes set, the recovered state must coincide with an on-disk
// generation before the page file can serve reads: when the WAL replayed a
// tail (or the directory had no generation yet), a checkpoint is cut first,
// which also writes the matching page image. Page images follow checkpoints
// from then on — a commit publishes an un-paged snapshot (its reads fall
// back to the in-memory graph), and the next Checkpoint re-binds.
func OpenPathOptions(dir string, opts Options) (*Database, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened {
			lock.Close()
		}
	}()
	cands, err := snapshotFiles(dir)
	if err != nil {
		return nil, err
	}
	var (
		snap     *storage.Snapshot
		loaded   snapFile
		firstErr error
	)
	for _, c := range cands {
		s, err := storage.ReadSnapshotFile(c.path)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", c.path, err)
			}
			continue
		}
		snap, loaded = s, c
		break
	}
	if snap == nil && len(cands) > 0 {
		// Every generation is damaged: recovering as an empty database
		// would quietly discard the data, so refuse.
		return nil, fmt.Errorf("core: no valid snapshot in %s (newest: %v)", dir, firstErr)
	}
	if snap == nil {
		g := ssd.New()
		fp := mutate.Fingerprint(g)
		snap = &storage.Snapshot{Graph: g, SelfFP: fp, WALBaseFP: fp}
	}

	w, matched, err := mutate.OpenWALMatching(filepath.Join(dir, walFile), snap.SelfFP, snap.WALBaseFP)
	if err != nil {
		return nil, err
	}
	skipped := 0
	if matched != snap.SelfFP {
		// The log is still bound to the snapshot's base: a crash interrupted
		// the last checkpoint between snapshot rename and log truncation.
		// The snapshot's first Applied batches are already folded in — skip
		// them and complete the truncation.
		if w.Batches() < int(snap.Applied) {
			w.Close()
			return nil, fmt.Errorf("core: %s: snapshot folds %d batches but log holds %d",
				dir, snap.Applied, w.Batches())
		}
		//ssd:nolock writeMu: OpenPath recovery runs before the Database is published; no other goroutine can hold a reference, so the writer lock does not exist yet
		if err := w.TruncatePrefix(int(snap.Applied), snap.SelfFP); err != nil {
			w.Close()
			return nil, err
		}
		skipped = int(snap.Applied)
	}

	// Replay the tail in place, maintaining the restored derived structures
	// incrementally so recovery hands back a query-ready snapshot. A value
	// index section (written by older generations) is decoded but ignored:
	// nothing on the serving path reads one.
	g := snap.Graph
	d := derived{labelIx: snap.Labels, guide: snap.Guide, stats: snap.Stats}
	replayed := 0
	if w.Batches() > 0 {
		if err := w.Replay(func(b *mutate.Batch) error {
			res, err := mutate.ApplyInPlace(g, b)
			if err != nil {
				return err
			}
			replayed++
			d = d.apply(g, res)
			return nil
		}); err != nil {
			w.Close()
			return nil, err
		}
	}

	db := &Database{dir: dir, dirLock: lock, poolBytes: opts.PoolBytes}
	// Restore the replication position: the snapshot's persisted commit
	// count plus the tail replayed on top of it. Skipped batches are already
	// inside snap.CommitSeq — they were folded before the crash.
	db.replSeq.Store(snap.CommitSeq + uint64(replayed))
	obsCommitSeq.Set(int64(snap.CommitSeq + uint64(replayed)))
	db.snapSeq.Store(loaded.seq)
	db.snap.Store(&snapshot{g: g, derived: d})
	db.wal = w
	db.walRO.Store(w)
	opened = true
	db.recovery = RecoveryInfo{
		SnapshotPath: loaded.path,
		SnapshotSeq:  loaded.seq,
		Skipped:      skipped,
		Replayed:     replayed,
	}
	obsRecoveryReplayed.Set(int64(replayed))
	obsRecoverySkipped.Set(int64(skipped))
	obsCkptGen.Set(int64(loaded.seq))

	if opts.PoolBytes > 0 {
		if replayed > 0 || loaded.seq == 0 {
			// The recovered state is ahead of (or absent from) every on-disk
			// generation, so no page image can describe it. Cut a generation
			// now; its page-image hook binds the store.
			if _, err := db.Checkpoint(); err != nil {
				db.CloseWAL()
				return nil, err
			}
		} else if err := db.bindPageStore(db.snapshot(), loaded.seq); err != nil {
			db.CloseWAL()
			return nil, err
		}
	}
	return db, nil
}

// bindPageStore opens (rebuilding when missing or torn) the page image of
// generation seq and binds it to snap. snap must not be published to readers
// yet, or must be republished by the caller — the field is construction-only.
func (db *Database) bindPageStore(snap *snapshot, seq uint64) error {
	path := filepath.Join(db.dir, pageName(seq))
	ps, err := storage.OpenPageFile(path, db.poolBytes)
	if err != nil {
		// Missing or damaged page image (older directory layout, torn write):
		// it derives deterministically from the snapshot, so rebuild it.
		if err := storage.WritePageFile(path, snap.g, storage.ClusterDFS, storage.DefaultPageSize); err != nil {
			return fmt.Errorf("core: rebuilding page image %s: %w", path, err)
		}
		if ps, err = storage.OpenPageFile(path, db.poolBytes); err != nil {
			return err
		}
	}
	snap.paged = ps
	db.writeMu.Lock()
	db.pageStores = append(db.pageStores, ps)
	db.writeMu.Unlock()
	return nil
}

// LastRecovery reports what OpenPath recovered. Zero for databases not
// opened from a durable directory.
func (db *Database) LastRecovery() RecoveryInfo { return db.recovery }

// SnapshotSeq returns the newest snapshot generation on disk — the durable
// log position health endpoints report. 0 for non-durable databases and
// for durable directories that have not checkpointed yet. Safe to call
// concurrently with Checkpoint.
func (db *Database) SnapshotSeq() uint64 { return db.snapSeq.Load() }

// Durable reports whether the database is backed by a durable directory
// (opened with OpenPath) and therefore supports Checkpoint.
func (db *Database) Durable() bool { return db.dir != "" }

// WALSize returns the current size in bytes of the open write-ahead log
// (0 without one) — the figure size-threshold checkpoint triggers and
// /healthz watch. Lock-free: it must stay responsive while a checkpoint's
// log truncation holds the writer lock.
func (db *Database) WALSize() int64 {
	w := db.walRO.Load()
	if w == nil {
		return 0
	}
	return w.Size()
}

// CheckpointInfo describes one completed checkpoint.
type CheckpointInfo struct {
	Path      string // snapshot file written (or current, when NoOp)
	Seq       uint64 // its generation number
	Bytes     int64  // its size (0 when NoOp)
	Truncated int    // WAL batches folded in and removed from the log
	// NoOp reports that nothing was written: a generation already exists
	// and no batches have been committed since it was taken.
	NoOp bool
}

// Checkpoint writes the next snapshot generation and truncates the log
// prefix it covers. The expensive part — serializing the pinned MVCC
// snapshot with its indexes and DataGuide to a temp file and renaming it
// in — runs without any lock the read or write paths take: readers keep
// streaming and the single writer keeps committing throughout. Only two
// brief windows take the writer lock: pinning (snapshot pointer + log
// position must be read consistently) and the final log truncation, which
// removes exactly the prefix the new generation folded in, so commits that
// landed during serialization survive in the tail.
//
// Checkpoints are serialized with each other; concurrent calls queue.
//
//ssd:locks writeMu
func (db *Database) Checkpoint() (CheckpointInfo, error) {
	if db.dir == "" {
		return CheckpointInfo{}, fmt.Errorf("core: database was not opened with OpenPath")
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	db.writeMu.Lock()
	if db.wal == nil {
		db.writeMu.Unlock()
		return CheckpointInfo{}, fmt.Errorf("core: database is closed")
	}
	snap := db.snapshot()
	folded := db.wal.Batches()
	baseFP := db.wal.BaseFingerprint()
	// Under the writer lock, every logged batch is in the log: the pinned
	// snapshot's replication position is exactly the current commit count.
	commitSeq := db.replSeq.Load()
	db.writeMu.Unlock()

	if cur := db.snapSeq.Load(); folded == 0 && cur > 0 {
		// Nothing committed since the newest generation: rewriting an
		// identical snapshot (and its indexes) would be pure I/O. An idle
		// database checkpoints for free.
		return CheckpointInfo{
			Path: filepath.Join(db.dir, snapName(cur)),
			Seq:  cur,
			NoOp: true,
		}, nil
	}
	start := time.Now()

	seq := db.snapSeq.Load() + 1
	path := filepath.Join(db.dir, snapName(seq))
	s := snap.image()
	s.WALBaseFP, s.Applied, s.CommitSeq = baseFP, uint64(folded), commitSeq
	n, err := storage.WriteSnapshotFile(path, s)
	if err != nil {
		return CheckpointInfo{}, err
	}

	// The generation is durable; now drop its prefix from the log. Under
	// the writer lock: a commit must either be in the folded prefix (it
	// was, by the pin) or survive in the tail — never vanish in between.
	db.writeMu.Lock()
	err = db.wal.TruncatePrefix(folded, s.SelfFP)
	db.writeMu.Unlock()
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("core: checkpoint %s written but log truncation failed: %w", path, err)
	}
	db.snapSeq.Store(seq)
	db.pruneSnapshots(seq)
	obsCkptDur.Observe(time.Since(start))
	obsCkpts.Inc()
	obsCkptGen.Set(int64(seq))
	info := CheckpointInfo{Path: path, Seq: seq, Bytes: n, Truncated: folded}
	if db.poolBytes > 0 {
		// Out-of-core mode: derive the generation's page image and rebind the
		// read path to it. The checkpoint itself is already durable; a page-
		// image failure is reported but costs only the paged read path until
		// the next checkpoint.
		if err := db.republishPaged(snap, seq); err != nil {
			return info, fmt.Errorf("core: checkpoint %s written but page image failed: %w", path, err)
		}
	}
	return info, nil
}

// republishPaged writes generation seq's page image from the pinned
// checkpoint snapshot, opens a page store over it, and republishes the
// snapshot page-backed. Publishing a NEW snapshot (same graph and derived
// structures, store bound at construction) rather than mutating the old one
// keeps snapshots immutable: plan pools are keyed by snapshot pointer, so no
// pool can ever hold plans compiled against two different stores for one
// snapshot. Skipped without error when writers advanced past the pinned
// snapshot — the image would describe a superseded state; the next
// checkpoint tries again.
func (db *Database) republishPaged(snap *snapshot, seq uint64) error {
	if db.snapshot() != snap {
		return nil // cheap early-out before paying the file write
	}
	path := filepath.Join(db.dir, pageName(seq))
	if err := storage.WritePageFile(path, snap.g, storage.ClusterDFS, storage.DefaultPageSize); err != nil {
		return err
	}
	ps, err := storage.OpenPageFile(path, db.poolBytes)
	if err != nil {
		return err
	}
	db.writeMu.Lock()
	if db.snapshot() != snap {
		db.writeMu.Unlock()
		ps.Close() // a commit won the race; its state is ahead of this image
		return nil
	}
	db.pageStores = append(db.pageStores, ps)
	db.publish(&snapshot{g: snap.g, paged: ps, derived: snap.built()})
	db.writeMu.Unlock()
	return nil
}

// pruneSnapshots removes generations older than the previous one. The
// previous generation is kept as the fallback for a torn newest file;
// anything older can never be chosen by OpenPath while a newer valid one
// exists. Best-effort: a prune failure only costs disk.
func (db *Database) pruneSnapshots(cur uint64) {
	ents, err := os.ReadDir(db.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		var seq uint64
		switch {
		case scanSeq(name, "snap-%d"+snapSuffix, &seq) && name == snapName(seq):
		case scanSeq(name, "pages-%d"+pageSuffix, &seq) && name == pageName(seq):
			// Page images prune on the same schedule as their snapshots. An
			// open PageStore over a removed file keeps working (the inode
			// lives until the handle closes); only the directory entry goes.
		default:
			continue
		}
		if seq+1 < cur {
			os.Remove(filepath.Join(db.dir, name))
		}
	}
}

func scanSeq(name, format string, seq *uint64) bool {
	n, err := fmt.Sscanf(name, format, seq)
	return n == 1 && err == nil
}

// SavePath exports the database's current snapshot as the first generation
// of a new durable directory — the bridge from the in-memory loaders
// (ParseText, Open, FromGraph) to OpenPath. It refuses a directory that
// already holds a snapshot or log: merging histories silently could orphan
// the existing log's commits.
func (db *Database) SavePath(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cands, err := snapshotFiles(dir)
	if err != nil {
		return err
	}
	if len(cands) > 0 {
		return fmt.Errorf("core: %s already holds snapshot generations", dir)
	}
	if _, err := os.Stat(filepath.Join(dir, walFile)); err == nil {
		return fmt.Errorf("core: %s already holds a write-ahead log", dir)
	}
	snap := db.snapshot()
	s := snap.image()
	s.WALBaseFP = mutate.Fingerprint(snap.g) // fresh directory: the log will start at this state
	_, err = storage.WriteSnapshotFile(filepath.Join(dir, snapName(1)), s)
	return err
}
