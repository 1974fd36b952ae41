package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/storage"
)

// This file is the replication face of a Database: the accessors a leader's
// /replicate endpoints and a follower's apply loop are built from.
//
// The unit of replication is the committed batch, and the coordinate system
// is the commit sequence: replSeq counts every logged commit since the
// durable directory's birth. The WAL holds a contiguous suffix of that
// history — its first frame is batch number replSeq-Batches() — and each
// checkpoint persists the sequence it folded (Snapshot.CommitSeq), so the
// mapping survives restarts and transfers to any follower that boots from
// this database's snapshot files. A leader ships frames by sequence number;
// a follower applies them through the ordinary commit path (so its own WAL,
// checkpoints, indexes and statistics are maintained exactly as a writer's
// would be) and lands, batch for batch, on a byte-identical graph.

// ErrReplGone reports that a requested replication position has been
// truncated out of the leader's WAL by a checkpoint: the follower is too
// far behind to stream and must bootstrap from a snapshot instead.
var ErrReplGone = errors.New("core: replication position precedes the WAL; bootstrap from a snapshot")

var obsCommitSeq = obs.Default.Gauge("ssd_commit_seq",
	"Replication position: batches committed since the durable directory's birth.")

// CommitSeq returns the database's replication position — the number of
// logged batches committed since the durable directory's birth (since
// handle creation for non-durable databases). It is the value carried by
// X-SSD-Seq read-your-writes tokens. Lock-free.
func (db *Database) CommitSeq() uint64 { return db.replSeq.Load() }

// advanceSeq moves the replication position forward by n and wakes every
// waiter (read-your-writes reads, replication streams). The position is
// advanced before the broadcast so a woken waiter always observes it.
func (db *Database) advanceSeq(n uint64) { db.wakeSeq(db.replSeq.Add(n)) }

// setSeq rebinds the replication position outright — bootstrap installing a
// leader snapshot — and wakes waiters the same way a commit would.
func (db *Database) setSeq(seq uint64) {
	db.replSeq.Store(seq)
	db.wakeSeq(seq)
}

// wakeSeq publishes seq, the position just stored, and closes the channel
// SeqChanged last handed out.
func (db *Database) wakeSeq(seq uint64) {
	obsCommitSeq.Set(int64(seq))
	db.seqMu.Lock()
	ch := db.seqCh
	db.seqCh = nil
	db.seqMu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// SeqChanged returns a channel closed at the next commit — the broadcast
// read-your-writes waits and replication streams park on. Callers must
// re-check CommitSeq after acquiring it: the channel covers commits from
// this call onward, not the one that may have just happened.
func (db *Database) SeqChanged() <-chan struct{} {
	db.seqMu.Lock()
	defer db.seqMu.Unlock()
	if db.seqCh == nil {
		db.seqCh = make(chan struct{})
	}
	return db.seqCh
}

// WaitForSeq blocks until the database's replication position reaches seq or
// ctx ends — the read-your-writes primitive: a replica holds a tokened read
// here instead of serving data older than the client's own write.
func (db *Database) WaitForSeq(ctx context.Context, seq uint64) error {
	for {
		if db.CommitSeq() >= seq {
			return nil
		}
		ch := db.SeqChanged()
		if db.CommitSeq() >= seq { // re-check: a commit may have raced the subscribe
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// MutateScriptSeq parses src in the ssdq mutation script format (see
// mutate.ParseScript) against the current snapshot, commits it as one batch,
// and returns the replication position after the commit — the X-SSD-Seq
// token a serving layer hands back so the client's next read can demand its
// own write. The writer lock is held across parse and commit, so the
// script's node references can never be invalidated by an interleaving
// writer.
//
//ssd:locks writeMu
func (db *Database) MutateScriptSeq(src string) (uint64, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	b, err := mutate.ParseScript(src, db.snapshot().g)
	if err != nil {
		return 0, err
	}
	if err := db.commitLocked(b); err != nil {
		return 0, err
	}
	return db.replSeq.Load(), nil
}

// ReplCursor opens a frame cursor positioned at global sequence from, and
// also reports the current commit position. It returns ErrReplGone when a
// checkpoint has already truncated that position out of the log. The cursor
// file handle is opened under the writer lock so it is pinned to the same
// log incarnation the position arithmetic described; frames the caller then
// reads are immutable history even while the writer keeps appending.
//
//ssd:locks writeMu
func (db *Database) ReplCursor(from uint64) (*mutate.Cursor, uint64, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.wal == nil {
		return nil, 0, fmt.Errorf("core: database has no write-ahead log to replicate")
	}
	seq := db.replSeq.Load()
	walStart := seq - uint64(db.wal.Batches())
	if from < walStart {
		return nil, seq, ErrReplGone
	}
	c, err := mutate.OpenCursor(db.wal.Path())
	if err != nil {
		return nil, seq, err
	}
	if err := c.Skip(int(from - walStart)); err != nil {
		// The skipped prefix was complete on disk when we took the lock, so
		// any failure here is real I/O trouble, not a torn tail.
		c.Close()
		return nil, seq, fmt.Errorf("core: positioning replication cursor at %d: %w", from, err)
	}
	return c, seq, nil
}

// ApplyReplicated decodes one streamed batch frame and commits it through
// the ordinary write path: applied copy-on-write, appended to the local WAL,
// published as a new MVCC snapshot with incremental index/DataGuide/stats
// maintenance, and counted against the replication position. It returns the
// position after the apply. The frame must extend the current state — a
// batch built against a different base is rejected, which is exactly how a
// diverged follower surfaces instead of silently forking.
//
//ssd:locks writeMu
func (db *Database) ApplyReplicated(frame []byte) (uint64, error) {
	b, err := mutate.DecodeBatch(frame)
	if err != nil {
		return 0, err
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.commitLocked(b); err != nil {
		return 0, err
	}
	return db.replSeq.Load(), nil
}

// SnapshotFile returns the path and generation of the newest durable
// snapshot on disk — what a leader streams to a bootstrapping follower.
// ok=false when the directory holds no generation yet (checkpoint first).
func (db *Database) SnapshotFile() (path string, seq uint64, ok bool) {
	if db.dir == "" {
		return "", 0, false
	}
	cur := db.snapSeq.Load()
	if cur == 0 {
		return "", 0, false
	}
	return filepath.Join(db.dir, snapName(cur)), cur, true
}

// SeedPathSnapshot initializes dir as a durable directory whose first
// generation is the already-encoded snapshot image data — the bootstrap
// path a brand-new follower takes with the bytes it downloaded from its
// leader. The image is validated by a full decode before anything is
// written, and an initialized directory is refused for the same reason
// SavePath refuses one: silently merging histories could orphan commits.
func SeedPathSnapshot(dir string, data []byte) error {
	if _, err := storage.DecodeSnapshot(data); err != nil {
		return fmt.Errorf("core: bootstrap snapshot does not decode: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	initialized, err := PathInitialized(dir)
	if err != nil {
		return err
	}
	if initialized {
		return fmt.Errorf("core: %s already holds a durable database", dir)
	}
	// Atomically: a torn snap-1 would make OpenPath refuse the directory
	// while PathInitialized reports it seeded, so it could never reseed.
	_, err = storage.WriteFileAtomic(filepath.Join(dir, snapName(1)), data)
	return err
}

// ReplaceFromSnapshot rebinds the database to a decoded leader snapshot —
// the mid-life bootstrap a follower falls back to when the leader has
// truncated past its position (ErrReplGone). It persists the snapshot as the
// next local generation, truncates the local log down to an empty one bound
// to it, publishes the snapshot's graph and derived structures, and adopts
// its replication position. The crash windows mirror Checkpoint's: the new
// generation records which local log (and how much of it) it supersedes, so
// recovery between the snapshot write and the log truncation skips the
// superseded batches and completes the truncation.
//
//ssd:locks writeMu
func (db *Database) ReplaceFromSnapshot(s *storage.Snapshot) error {
	if db.dir == "" {
		return fmt.Errorf("core: database was not opened with OpenPath")
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.wal == nil {
		return fmt.Errorf("core: database is closed")
	}
	folded := db.wal.Batches()
	seq := db.snapSeq.Load() + 1
	// Persist under this directory's own log coordinates: the local log's
	// every batch is superseded by the incoming state, which is precisely
	// what WALBaseFP+Applied express to recovery. A leader image from an
	// older build may carry a value index section; it is not re-persisted.
	persisted := *s
	persisted.WALBaseFP = db.wal.BaseFingerprint()
	persisted.Applied = uint64(folded)
	persisted.Values = nil
	path := filepath.Join(db.dir, snapName(seq))
	if _, err := storage.WriteSnapshotFile(path, &persisted); err != nil {
		return err
	}
	if err := db.wal.TruncatePrefix(folded, persisted.SelfFP); err != nil {
		return fmt.Errorf("core: bootstrap snapshot %s written but log truncation failed: %w", path, err)
	}
	db.snapSeq.Store(seq)
	db.pruneSnapshots(seq)
	db.publish(&snapshot{g: s.Graph, derived: derived{labelIx: s.Labels, guide: s.Guide, stats: s.Stats}})
	db.setSeq(s.CommitSeq)
	obsCkptGen.Set(int64(seq))
	return nil
}
