package core

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/mutate"
	"repro/internal/storage"
)

// TestCommitSeqCountsAndPersists: the replication position counts every
// logged commit from the directory's birth and survives checkpoints and
// restarts — a reopened database resumes at exactly snapshot-seq + replayed.
func TestCommitSeqCountsAndPersists(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.CommitSeq(); got != 0 {
		t.Fatalf("fresh CommitSeq = %d, want 0", got)
	}
	commitN(t, db, 0, 5)
	if got := db.CommitSeq(); got != 5 {
		t.Fatalf("after 5 commits CommitSeq = %d, want 5", got)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitN(t, db, 5, 3)
	if got := db.CommitSeq(); got != 8 {
		t.Fatalf("after checkpoint + 3 commits CommitSeq = %d, want 8", got)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	if got := re.CommitSeq(); got != 8 {
		t.Fatalf("reopened CommitSeq = %d, want 8 (snapshot 5 + 3 replayed)", got)
	}
}

// TestMutateScriptSeqReturnsPosition: the seq a commit returns is the
// position CommitSeq reports — the token a client can demand on its next
// read.
func TestMutateScriptSeqReturnsPosition(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	for want := uint64(1); want <= 3; want++ {
		seq, err := db.MutateScriptSeq("addnode; addedge 0 x $0")
		if err != nil {
			t.Fatal(err)
		}
		if seq != want || db.CommitSeq() != want {
			t.Fatalf("commit %d returned seq %d (CommitSeq %d)", want, seq, db.CommitSeq())
		}
	}
}

// TestReplCursorConvergence is replication end to end at the core layer: a
// follower that applies the leader's streamed frames lands on a
// byte-identical graph (bisim canonical form) at the same position — even
// when the stream starts mid-history.
func TestReplCursorConvergence(t *testing.T) {
	leader, err := OpenPath(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.CloseWAL()
	follower, err := OpenPath(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.CloseWAL()

	commitN(t, leader, 0, 6)
	cur, leaderSeq, err := leader.ReplCursor(follower.CommitSeq())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if leaderSeq != 6 {
		t.Fatalf("leader position = %d, want 6", leaderSeq)
	}
	for follower.CommitSeq() < leaderSeq {
		frame, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := follower.ApplyReplicated(frame); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := canonDB(follower), canonDB(leader); got != want {
		t.Fatalf("follower not byte-identical to leader:\nleader   %s\nfollower %s", want, got)
	}

	// The stream tails: more leader commits, resumed cursor from the
	// follower's position, same invariant.
	commitN(t, leader, 6, 4)
	cur2, leaderSeq, err := leader.ReplCursor(follower.CommitSeq())
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	for follower.CommitSeq() < leaderSeq {
		frame, err := cur2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := follower.ApplyReplicated(frame); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := canonDB(follower), canonDB(leader); got != want {
		t.Fatalf("after tail: follower differs from leader")
	}
	if _, err := cur2.Next(); !errors.Is(err, mutate.ErrNoFrame) {
		t.Fatalf("caught-up cursor: err = %v, want ErrNoFrame", err)
	}
}

// TestReplCursorGoneAfterCheckpoint: a checkpoint truncates the log, so a
// position before the fold must be refused with ErrReplGone (the follower
// bootstraps instead), while positions at or after it still stream.
func TestReplCursorGoneAfterCheckpoint(t *testing.T) {
	db, err := OpenPath(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	commitN(t, db, 0, 4)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitN(t, db, 4, 2)

	if _, _, err := db.ReplCursor(3); !errors.Is(err, ErrReplGone) {
		t.Fatalf("position 3 (pre-checkpoint): err = %v, want ErrReplGone", err)
	}
	cur, seq, err := db.ReplCursor(4)
	if err != nil {
		t.Fatalf("position 4 (the fold point): %v", err)
	}
	defer cur.Close()
	if seq != 6 {
		t.Fatalf("leader position = %d, want 6", seq)
	}
	for i := 0; i < 2; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatalf("tail frame %d: %v", i, err)
		}
	}
}

// TestWaitForSeq: an already-reached position returns immediately; a future
// one blocks until the commit that reaches it; an unreached one times out
// with the context's error — the 503 path, never a stale read.
func TestWaitForSeq(t *testing.T) {
	db, err := OpenPath(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	commitN(t, db, 0, 2)

	if err := db.WaitForSeq(context.Background(), 2); err != nil {
		t.Fatalf("reached position: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- db.WaitForSeq(context.Background(), 3) }()
	time.Sleep(10 * time.Millisecond) // let the waiter park
	commitN(t, db, 2, 1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait released by commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitForSeq(3) not released by the commit that reached 3")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := db.WaitForSeq(ctx, 100); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unreachable position: err = %v, want deadline exceeded", err)
	}
}

// TestSeedPathSnapshot: a brand-new follower directory seeded with the
// leader's raw snapshot bytes opens as that state at that position — and a
// directory that already holds a database refuses the seed.
func TestSeedPathSnapshot(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := OpenPath(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, leader, 0, 5)
	if _, err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := canonDB(leader)
	path, _, ok := leader.SnapshotFile()
	if !ok {
		t.Fatal("leader has no snapshot generation after checkpoint")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	folDir := t.TempDir()
	if err := SeedPathSnapshot(folDir, data); err != nil {
		t.Fatal(err)
	}
	fol, err := OpenPath(folDir)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.CloseWAL()
	if got := canonDB(fol); got != want {
		t.Fatalf("seeded follower differs from leader:\nwant %s\ngot  %s", want, got)
	}
	if got := fol.CommitSeq(); got != 5 {
		t.Fatalf("seeded follower CommitSeq = %d, want 5", got)
	}

	if err := SeedPathSnapshot(folDir, data); err == nil {
		t.Fatal("seeding an initialized directory did not fail")
	}
	if err := SeedPathSnapshot(t.TempDir(), []byte("not a snapshot")); err == nil {
		t.Fatal("seeding garbage bytes did not fail")
	}
}

// TestReplaceFromSnapshot is the mid-life re-bootstrap: a follower whose
// position the leader truncated away adopts the leader's snapshot outright —
// state, derived structures and position — and the adoption is durable
// across its own restart.
func TestReplaceFromSnapshot(t *testing.T) {
	leader, err := OpenPath(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, leader, 0, 7)
	if _, err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := canonDB(leader)
	path, _, _ := leader.SnapshotFile()
	snap, err := storage.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if snap.CommitSeq != 7 {
		t.Fatalf("leader snapshot CommitSeq = %d, want 7", snap.CommitSeq)
	}
	// A leader from an older build ships a value index section too.
	snap.Values = index.BuildValueIndex(snap.Graph)

	folDir := t.TempDir()
	fol, err := OpenPath(folDir)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, fol, 100, 2) // diverged local history, about to be superseded
	if err := fol.ReplaceFromSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got := canonDB(fol); got != want {
		t.Fatalf("after ReplaceFromSnapshot: follower differs from leader")
	}
	if got := fol.CommitSeq(); got != 7 {
		t.Fatalf("adopted CommitSeq = %d, want 7", got)
	}
	// Statements run against the adopted state: the leader's edges are
	// there, the superseded local ones are not.
	if n := countRows(t, fol, `select X from DB.6 X`); n != 1 {
		t.Fatalf("leader edge 6: %d rows after adoption, want 1", n)
	}
	if n := countRows(t, fol, `select X from DB.100 X`); n != 0 {
		t.Fatalf("superseded local edge 100: %d rows after adoption, want 0", n)
	}
	// The adopted generation is persisted without the leader's value index.
	adopted, _, _ := fol.SnapshotFile()
	if s, err := storage.ReadSnapshotFile(adopted); err != nil || s.Values != nil {
		t.Fatalf("adopted generation re-persisted the value index section (err %v)", err)
	}
	if err := fol.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPath(folDir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	if got := canonDB(re); got != want {
		t.Fatalf("restart after adoption differs from leader")
	}
	if got := re.CommitSeq(); got != 7 {
		t.Fatalf("restarted CommitSeq = %d, want 7", got)
	}
}
