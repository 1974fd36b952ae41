package mutate

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bisim"
	"repro/internal/ssd"
	"repro/internal/storage"
)

// commitRandom applies n random batches to g in place, logging each to w.
func commitRandom(t *testing.T, w *WAL, g *ssd.Graph, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		b := randBatch(g, rng, 1+rng.Intn(8))
		if _, err := ApplyInPlace(g, b); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
}

// replayAll opens the WAL at path and applies every batch to g.
func replayAll(t *testing.T, path string, g *ssd.Graph) *WAL {
	t.Helper()
	w, err := OpenWAL(path, Fingerprint(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(func(b *Batch) error {
		_, err := ApplyInPlace(g, b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

func canon(g *ssd.Graph) string { return ssd.FormatRoot(bisim.Canonicalize(g)) }

// TestWALReplayByteIdentity is the acceptance property: a snapshot plus the
// WAL written by one "process", replayed by a fresh one, yields a graph
// byte-identical (after bisim.Canonicalize) to the in-memory original.
func TestWALReplayByteIdentity(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.ssdg")
	logPath := filepath.Join(dir, "wal")
	rng := rand.New(rand.NewSource(31))

	// Process 1: persist a base snapshot, then commit through the WAL.
	g := fig1Fragment()
	if err := storage.WriteFile(base, g); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(logPath, Fingerprint(g))
	if err != nil {
		t.Fatal(err)
	}
	commitRandom(t, w, g, rng, 25)
	w.Close()
	want := canon(g)

	// Process 2: fresh handles, replay.
	h, err := storage.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	w2 := replayAll(t, logPath, h)
	if got := canon(h); got != want {
		t.Fatalf("replayed graph differs:\n got %s\nwant %s", got, want)
	}
	// OIDs are invisible to canonicalization; check them directly.
	for v := 0; v < g.NumNodes(); v++ {
		gid, gok := g.OIDOf(ssd.NodeID(v))
		hid, hok := h.OIDOf(ssd.NodeID(v))
		if gok != hok || gid != hid {
			t.Fatalf("node %d oid %q,%v != %q,%v", v, hid, hok, gid, gok)
		}
	}

	// Appends continue from the replayed state.
	commitRandom(t, w2, h, rng, 5)
	w2.Close()
	h2, err := storage.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, logPath, h2).Close()
	if canon(h2) != canon(h) {
		t.Fatal("second replay diverged")
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal")
	rng := rand.New(rand.NewSource(37))

	g := fig1Fragment()
	w, err := OpenWAL(logPath, Fingerprint(g))
	if err != nil {
		t.Fatal(err)
	}
	commitRandom(t, w, g, rng, 10)
	w.Close()

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 3, len(data)/2 + 1} {
		torn := filepath.Join(dir, "torn")
		if err := os.WriteFile(torn, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenWAL(torn, Fingerprint(fig1Fragment()))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if w2.Batches() >= 10 {
			t.Fatalf("cut %d: torn tail still counted (%d batches)", cut, w2.Batches())
		}
		// The torn frame is truncated away; appending must produce a clean log.
		h := fig1Fragment()
		if err := w2.Replay(func(b *Batch) error { _, err := ApplyInPlace(h, b); return err }); err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}
		commitRandom(t, w2, h, rng, 1)
		w2.Close()
		h2 := fig1Fragment()
		replayAll(t, torn, h2).Close()
		if canon(h2) != canon(h) {
			t.Fatalf("cut %d: replay after torn-tail append diverged", cut)
		}
	}

	// Corrupt a byte inside the header frame: the log can no longer prove
	// which snapshot it extends, and batches follow it, so Open must refuse
	// it rather than drop them.
	bad := append([]byte(nil), data...)
	bad[6] ^= 0xff
	corrupt := filepath.Join(dir, "corrupt")
	if err := os.WriteFile(corrupt, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if w3, err := OpenWAL(corrupt, Fingerprint(fig1Fragment())); err == nil {
		w3.Close()
		t.Fatal("log with a corrupt header opened")
	}
	if got, err := os.ReadFile(corrupt); err != nil || string(got) != string(bad) {
		t.Fatalf("refused log was modified (err %v)", err)
	}
}
