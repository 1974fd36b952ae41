package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bisim"
	"repro/internal/index"
	"repro/internal/mutate"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/storage"
)

func canonDB(db *Database) string { return ssd.FormatRoot(bisim.Canonicalize(db.Graph())) }

// commitN commits n single-edge scripts, each adding one distinctly
// labeled leaf under the root, so states after different counts are
// distinguishable.
func commitN(t *testing.T, db *Database, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if _, err := db.MutateScriptSeq(fmt.Sprintf("addnode; addedge 0 %d $0", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenPathFreshRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, db, 0, 4)
	want := canonDB(db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	if got := canonDB(re); got != want {
		t.Fatalf("recovered state differs:\nwant %s\ngot  %s", want, got)
	}
	ri := re.LastRecovery()
	if ri.SnapshotPath != "" || ri.Replayed != 4 || ri.Skipped != 0 {
		t.Fatalf("recovery = %+v, want full replay of 4 from empty", ri)
	}
}

// TestCheckpointReplaysOnlyTail is the replay-count probe: after a
// checkpoint covering N batches and M more commits, a restart must replay
// exactly M — the WAL tail — and still be byte-identical to the live
// database under bisim.Canonicalize.
func TestCheckpointReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, db, 0, 5)
	info, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Truncated != 5 || info.Seq != 1 {
		t.Fatalf("checkpoint info = %+v, want 5 batches folded into seq 1", info)
	}
	commitN(t, db, 5, 3)
	want := canonDB(db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	ri := re.LastRecovery()
	if ri.Replayed != 3 {
		t.Fatalf("replayed %d batches, want only the 3-batch tail (recovery %+v)", ri.Replayed, ri)
	}
	if ri.SnapshotPath != info.Path || ri.SnapshotSeq != 1 {
		t.Fatalf("recovered from %q seq %d, want %q seq 1", ri.SnapshotPath, ri.SnapshotSeq, info.Path)
	}
	if got := canonDB(re); got != want {
		t.Fatalf("restart after checkpoint differs:\nwant %s\ngot  %s", want, got)
	}
	// The restored snapshot carries live derived structures: the label index
	// came back from the generation and absorbed the replayed tail.
	snap := re.snapshot()
	snap.mu.Lock()
	labels := snap.labelIx
	snap.mu.Unlock()
	if labels == nil || labels.Count(ssd.Int(7)) != 1 || labels.Count(ssd.Int(99)) != 0 {
		t.Fatal("recovered label index missing or stale")
	}
}

// TestCheckpointChain runs several checkpoint/commit rounds and checks
// generation bookkeeping: old generations are pruned to current+previous,
// and every restart replays only its tail.
func TestCheckpointChain(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for round := 0; round < 4; round++ {
		commitN(t, db, at, 2)
		at += 2
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	commitN(t, db, at, 1)
	want := canonDB(db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	cands, err := snapshotFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 || cands[0].seq != 4 || cands[1].seq != 3 {
		t.Fatalf("generations on disk: %+v, want exactly seq 4 and 3", cands)
	}
	re, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	if ri := re.LastRecovery(); ri.SnapshotSeq != 4 || ri.Replayed != 1 {
		t.Fatalf("recovery %+v, want seq 4 with a 1-batch tail", ri)
	}
	if got := canonDB(re); got != want {
		t.Fatal("multi-round recovery differs from live state")
	}
}

// TestCrashSafetyFallsBackToPreviousSnapshot simulates the three ways a
// checkpoint write can die mid-flight — a temp file that never got renamed,
// a truncated section, a CRC-corrupt section — and asserts recovery falls
// back to the previous generation plus a full WAL replay, byte-identical
// to the pre-crash state.
func TestCrashSafetyFallsBackToPreviousSnapshot(t *testing.T) {
	setup := func(t *testing.T) (dir, want string, snap1 []byte) {
		dir = t.TempDir()
		db, err := OpenPath(dir)
		if err != nil {
			t.Fatal(err)
		}
		commitN(t, db, 0, 3)
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		commitN(t, db, 3, 2) // the tail a fallback recovery must replay
		want = canonDB(db)
		if err := db.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		snap1, err = os.ReadFile(filepath.Join(dir, snapName(1)))
		if err != nil {
			t.Fatal(err)
		}
		return dir, want, snap1
	}

	check := func(t *testing.T, dir, want string) {
		re, err := OpenPath(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.CloseWAL()
		ri := re.LastRecovery()
		if ri.SnapshotSeq != 1 || ri.Replayed != 2 {
			t.Fatalf("recovery %+v, want fallback to seq 1 + 2-batch replay", ri)
		}
		if got := canonDB(re); got != want {
			t.Fatalf("fallback recovery differs:\nwant %s\ngot  %s", want, got)
		}
	}

	t.Run("missing rename", func(t *testing.T) {
		dir, want, snap1 := setup(t)
		// The interrupted write reached the temp name only.
		tmp := filepath.Join(dir, snapName(2)+".tmp")
		if err := os.WriteFile(tmp, snap1[:len(snap1)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, want)
	})
	t.Run("truncated section", func(t *testing.T) {
		dir, want, snap1 := setup(t)
		bad := filepath.Join(dir, snapName(2))
		if err := os.WriteFile(bad, snap1[:len(snap1)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, want)
	})
	t.Run("bad crc", func(t *testing.T) {
		dir, want, snap1 := setup(t)
		mut := append([]byte(nil), snap1...)
		mut[len(mut)/2] ^= 0x20
		bad := filepath.Join(dir, snapName(2))
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, want)
	})
}

// TestInterruptedTruncationSkipsFoldedPrefix simulates a crash between the
// snapshot rename and the log truncation: the newest generation is valid
// but the log is still bound to its base and holds batches the snapshot
// already folded in. Recovery must skip exactly that prefix, replay the
// tail, and complete the truncation.
func TestInterruptedTruncationSkipsFoldedPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, db, 0, 5)
	folded := db.Graph() // immutable snapshot: state after 5 batches
	commitN(t, db, 5, 2)
	want := canonDB(db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Hand-write what an interrupted checkpoint leaves: a valid generation
	// recording (base binding, 5 folded batches), with the log untouched.
	s := &storage.Snapshot{
		Graph:     folded,
		WALBaseFP: mutate.Fingerprint(ssd.New()), // the empty base OpenPath started from
		Applied:   5,
	}
	if _, err := storage.WriteSnapshotFile(filepath.Join(dir, snapName(1)), s); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	ri := re.LastRecovery()
	if ri.Skipped != 5 || ri.Replayed != 2 {
		t.Fatalf("recovery %+v, want 5 skipped + 2 replayed", ri)
	}
	if got := canonDB(re); got != want {
		t.Fatalf("recovery differs:\nwant %s\ngot  %s", want, got)
	}
	if err := re.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// The truncation was completed: the next open sees a clean binding.
	re2, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.CloseWAL()
	if ri := re2.LastRecovery(); ri.Skipped != 0 || ri.Replayed != 2 {
		t.Fatalf("second recovery %+v, want clean 2-batch tail", ri)
	}
}

// TestOpenPathTornWALHeader: OpenPath writes wal.log's header frame before
// any commit can be acknowledged, so a crash mid-header leaves a prefix of
// it. Every such prefix — on a fresh directory and on a SavePath-seeded
// one — must reopen as the directory's snapshot with an empty log that
// takes commits; a complete but corrupt header must still be refused.
func TestOpenPathTornWALHeader(t *testing.T) {
	seed, err := ParseText(`{a: 1, b: {c: "x"}}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, seeded := range []bool{false, true} {
		dir := t.TempDir()
		if seeded {
			must(t, seed.SavePath(dir))
		}
		db, err := OpenPath(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := canonDB(db)
		must(t, db.CloseWAL())
		walPath := filepath.Join(dir, walFile)
		header, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(header); cut++ {
			must(t, os.WriteFile(walPath, header[:cut], 0o644))
			re, err := OpenPath(dir)
			if err != nil {
				t.Fatalf("seeded=%v, header cut to %d bytes: %v", seeded, cut, err)
			}
			if ri := re.LastRecovery(); ri.Replayed != 0 || canonDB(re) != want {
				t.Fatalf("seeded=%v, cut %d: recovery %+v or state differs", seeded, cut, ri)
			}
			commitN(t, re, 0, 1)
			must(t, re.CloseWAL())
			re2, err := OpenPath(dir)
			if err != nil {
				t.Fatalf("seeded=%v, cut %d: reopen after commit: %v", seeded, cut, err)
			}
			if ri := re2.LastRecovery(); ri.Replayed != 1 {
				t.Fatalf("seeded=%v, cut %d: recovery %+v, want the commit replayed", seeded, cut, ri)
			}
			must(t, re2.CloseWAL())
		}
		bad := append([]byte(nil), header...)
		bad[len(bad)-1] ^= 0xff
		must(t, os.WriteFile(walPath, bad, 0o644))
		if re, err := OpenPath(dir); err == nil {
			re.CloseWAL()
			t.Fatalf("seeded=%v: a complete but corrupt header opened", seeded)
		}
	}
}

// TestCheckpointTruncateRace is the -race regression for the checkpoint/
// commit interleaving: commits land continuously while checkpoints run,
// and no batch may fall between a generation and the truncated log. The
// final restart must reconstruct every committed batch.
func TestCheckpointTruncateRace(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	const commits = 60
	var wg sync.WaitGroup
	wg.Add(1)
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < commits; i++ {
			if _, err := db.MutateScriptSeq(fmt.Sprintf("addnode; addedge 0 %d $0", i)); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
	}()
	for {
		if _, err := db.Checkpoint(); err != nil {
			t.Error(err)
			break
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// One final checkpoint after the writer stopped, then verify both the
	// live state and a cold restart hold all committed batches.
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := canonDB(db)
	if got := db.Graph().NumEdges(); got != commits {
		t.Fatalf("live state has %d edges, want %d", got, commits)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	if got := canonDB(re); got != want {
		t.Fatal("restart after racing checkpoints lost a commit")
	}
	if ri := re.LastRecovery(); ri.Replayed != 0 {
		t.Fatalf("final checkpoint covered everything, but %d batches replayed", ri.Replayed)
	}
}

func TestSavePathThenOpenPath(t *testing.T) {
	src, err := ParseText(`{movie: {title: "Casablanca", year: 1942}, movie: {title: "Sleeper"}}`)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := src.SavePath(dir); err != nil {
		t.Fatal(err)
	}
	if err := src.SavePath(dir); err == nil {
		t.Fatal("SavePath over an existing durable directory succeeded")
	}

	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	if got, want := canonDB(db), canonDB(src); got != want {
		t.Fatalf("exported state differs:\nwant %s\ngot  %s", want, got)
	}
	// The export is a real durable directory: commits log and checkpoint.
	commitN(t, db, 100, 1)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if res := execStmt(t, db, `select T from DB.movie.title T`); res.Graph().NumEdges() == 0 {
		t.Fatal("query over restored database returned nothing")
	}
}

// TestReopenIntsBeyond2to53 saves two ints that a float would round to one
// value and opens the directory again: the statistics section must decode
// the label order its own encoder wrote.
func TestReopenIntsBeyond2to53(t *testing.T) {
	src, err := ParseText(`{a: 9007199254740992, a: 9007199254740993}`)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	must(t, src.SavePath(dir))
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	if got, want := canonDB(db), canonDB(src); got != want {
		t.Fatalf("reopened state differs:\nwant %s\ngot  %s", want, got)
	}
}

// TestOpenPathExclusiveLock pins single-process ownership: a second open
// of a held directory must fail (two writers would interleave WAL frames
// and truncate each other's commits), and closing releases the lock.
func TestOpenPathExclusiveLock(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPath(dir); err == nil {
		t.Fatal("second OpenPath succeeded while the directory is held")
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenPath(dir)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	db2.CloseWAL()
}

// TestClosedDurableRefusesCommits: once CloseWAL has closed a directory-
// backed database, a commit must fail rather than publish a state neither
// the log nor any generation holds.
func TestClosedDurableRefusesCommits(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, db, 0, 1)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.MutateScriptSeq("addnode; addedge 0 Lost $0"); err == nil {
		t.Fatal("commit on a closed durable database succeeded")
	}
	b := db.Begin()
	n := b.AddNode()
	if err := b.AddEdge(db.Graph().Root(), ssd.Sym("Lost"), n); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(b); err == nil {
		t.Fatal("Commit on a closed durable database succeeded")
	}
	if _, err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a closed durable database succeeded")
	}
}

// TestCheckpointNoOp: with nothing committed since the newest generation,
// Checkpoint must not rewrite the snapshot — an idle database (and its
// interval checkpointer) checkpoints for free.
func TestCheckpointNoOp(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	// A brand-new directory has no generation: the first checkpoint writes
	// one even with zero batches.
	first, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if first.NoOp || first.Seq != 1 {
		t.Fatalf("first checkpoint = %+v, want a real generation 1", first)
	}
	fi1, err := os.Stat(first.Path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !again.NoOp || again.Seq != 1 || again.Path != first.Path {
		t.Fatalf("idle checkpoint = %+v, want NoOp pointing at generation 1", again)
	}
	fi2, err := os.Stat(first.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !fi2.ModTime().Equal(fi1.ModTime()) || fi2.Size() != fi1.Size() {
		t.Fatal("idle checkpoint rewrote the snapshot file")
	}
	// New commits make the next checkpoint real again.
	commitN(t, db, 0, 1)
	info, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.NoOp || info.Seq != 2 || info.Truncated != 1 {
		t.Fatalf("post-commit checkpoint = %+v, want generation 2 folding 1", info)
	}
}

func TestCheckpointRequiresOpenPath(t *testing.T) {
	db, err := ParseText(`{a: 1}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a non-durable database succeeded")
	}
}

// checkDerivedBuilt asserts that the snapshot db publishes already holds a
// label index and statistics — built at open, not lazily on first read —
// each equal to a rebuild from its graph.
func checkDerivedBuilt(t *testing.T, when string, db *Database) {
	t.Helper()
	s := db.snapshot()
	d := s.built()
	if d.labelIx == nil || d.stats == nil {
		t.Fatalf("%s: published snapshot lacks a label index (%v) or statistics (%v)", when, d.labelIx != nil, d.stats != nil)
	}
	if got, want := d.labelIx.Dump(), index.BuildLabelIndex(s.g).Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: label index differs from rebuild:\ngot  %v\nwant %v", when, got, want)
	}
	if got, want := d.stats.Dump(), stats.Build(s.g).Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: statistics differ from rebuild:\ngot  %+v\nwant %+v", when, got, want)
	}
}

// TestRecoveredStatsMatchRebuild pins the derived-structure lifecycle
// across every way a durable handle comes up: after OpenPath replays a WAL
// tail, after a follower boots from a leader's generation, and after
// ReplaceFromSnapshot adopts one, the published snapshot already holds the
// label index and statistics the planner reads, exactly as a from-scratch
// build over its graph.
func TestRecoveredStatsMatchRebuild(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, db, 0, 5)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitN(t, db, 5, 3) // WAL tail, replayed on reopen
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	if ri := re.LastRecovery(); ri.Replayed != 3 {
		t.Fatalf("recovery %+v, want a 3-batch tail", ri)
	}
	checkDerivedBuilt(t, "OpenPath", re)
	commitN(t, re, 8, 2) // commits maintain what open built
	checkDerivedBuilt(t, "commits after OpenPath", re)

	path, _, _ := re.SnapshotFile()
	data, err := os.ReadFile(path)
	must(t, err)
	folDir := t.TempDir()
	must(t, SeedPathSnapshot(folDir, data))
	fol, err := OpenPath(folDir)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.CloseWAL()
	checkDerivedBuilt(t, "follower bootstrap", fol)

	snap, err := storage.ReadSnapshotFile(path)
	must(t, err)
	commitN(t, fol, 100, 2) // diverged history, superseded below
	must(t, fol.ReplaceFromSnapshot(snap))
	checkDerivedBuilt(t, "ReplaceFromSnapshot", fol)
}

// TestNaNScriptLabelSurvivesCheckpoint: `NaN` in a mutation script is the
// symbol every other front-end reads, so the commit, the checkpoint that
// persists its statistics and the reopen all see one ordinary label.
func TestNaNScriptLabelSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.MutateScriptSeq("addnode; addedge 0 NaN $0"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	must(t, db.CloseWAL())

	re, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	g := re.Graph()
	if got := g.Lookup(g.Root(), ssd.Sym("NaN")); len(got) != 1 {
		t.Fatalf("root NaN edges after reopen: %v", got)
	}
	if got := re.snapshot().statistics().Count(ssd.Sym("NaN")); got != 1 {
		t.Fatalf("stats count of NaN = %d, want 1", got)
	}
}

// copyFixture copies the durable directory testdata/name into a fresh
// temporary directory, which opening it may write to.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []string{"snap-0000000000000001.ssds", "wal.log"} {
		data, err := os.ReadFile(filepath.Join("testdata", name, f))
		must(t, err)
		must(t, os.WriteFile(filepath.Join(dir, f), data, 0o644))
	}
	return dir
}

// checkGraphOnly asserts that the generation at path holds only meta and
// graph sections: it equals the encoding of its own graph and position.
func checkGraphOnly(t *testing.T, path string) *storage.Snapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	must(t, err)
	s, err := storage.DecodeSnapshot(data)
	must(t, err)
	again := &storage.Snapshot{Graph: s.Graph, WALBaseFP: s.WALBaseFP, Applied: s.Applied, CommitSeq: s.CommitSeq}
	if !bytes.Equal(storage.EncodeSnapshot(again), data) {
		t.Fatalf("%s holds more than meta and graph (%d bytes)", path, len(data))
	}
	return s
}

// TestOpensGenerationWithValueSection opens testdata/v5-every-section, a
// directory written by a build that still persisted derived structures: its
// generation carries labels, values, guide and stats sections after five
// commits, and its log a 3-batch tail. It opens, replays the tail and
// equals the frame-by-frame application of every commit at the same
// CommitSeq; its next generation holds only meta and graph.
func TestOpensGenerationWithValueSection(t *testing.T) {
	dir := copyFixture(t, "v5-every-section")
	gen := filepath.Join(dir, "snap-0000000000000001.ssds")
	data, err := os.ReadFile(gen)
	must(t, err)
	if s, err := storage.DecodeSnapshot(data); err != nil || len(storage.EncodeSnapshot(s)) >= len(data) {
		t.Fatalf("fixture generation carries no derived sections (err %v)", err)
	}

	re, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	if ri := re.LastRecovery(); ri.SnapshotSeq != 1 || ri.Replayed != 3 {
		t.Fatalf("recovery %+v, want generation 1 + a 3-batch tail", ri)
	}
	frames := FromGraph(ssd.New())
	commitN(t, frames, 0, 8)
	if got, want := canonDB(re), canonDB(frames); got != want {
		t.Fatalf("recovered state differs from frame-by-frame:\nwant %s\ngot  %s", want, got)
	}
	if got, want := re.CommitSeq(), frames.CommitSeq(); got != want {
		t.Fatalf("CommitSeq = %d, frame-by-frame %d", got, want)
	}
	checkDerivedBuilt(t, "open", re)

	next, err := re.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s := checkGraphOnly(t, next.Path)
	if s.CommitSeq != frames.CommitSeq() {
		t.Fatalf("new generation CommitSeq = %d, want %d", s.CommitSeq, frames.CommitSeq())
	}
	if got, want := ssd.FormatRoot(bisim.Canonicalize(s.Graph)), canonDB(frames); got != want {
		t.Fatal("new generation's graph differs from frame-by-frame")
	}
}

// TestV4SnapshotSignedZeroRebuilt opens a version-4 generation, written
// while Float(0) and Float(-0) were one label: its label index and
// statistics hold one entry for the root's 0.0 and -0.0 edges. Opening must
// rebuild both from the graph, so deleting the -0.0 edge afterwards leaves
// them equal to a rebuild instead of keeping a stale entry.
func TestV4SnapshotSignedZeroRebuilt(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "v4-signed-zero")
	for _, name := range []string{"snap-0000000000000001.ssds", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		must(t, err)
		must(t, os.WriteFile(filepath.Join(dir, name), data, 0o644))
	}
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	check := func(when string) {
		t.Helper()
		s := db.snapshot()
		if got, want := s.labels().Dump(), index.BuildLabelIndex(s.g).Dump(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: label index %v, rebuild %v", when, got, want)
		}
		if got, want := s.statistics().Dump(), stats.Build(s.g).Dump(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: statistics %+v, rebuild %+v", when, got, want)
		}
	}
	check("open")
	if _, err := db.MutateScriptSeq("deledge 0 -0.0 2"); err != nil {
		t.Fatal(err)
	}
	g := db.Graph()
	if n := len(g.Out(g.Root())); n != 2 {
		t.Fatalf("root has %d edges after deleting -0.0, want 2", n)
	}
	check("after deledge")
}
