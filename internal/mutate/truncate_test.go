package mutate

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bisim"
	"repro/internal/ssd"
)

// truncBase builds a small base graph and a WAL with n appended batches,
// each adding one labeled leaf under the root. It returns the base, the
// open WAL and the graph with all batches applied.
func truncBase(t *testing.T, path string, n int) (*ssd.Graph, *WAL, *ssd.Graph) {
	t.Helper()
	base, err := ssd.Parse(`{seed: "s"}`)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(path, Fingerprint(base))
	if err != nil {
		t.Fatal(err)
	}
	g := base.Clone()
	for i := 0; i < n; i++ {
		b := NewBatch(g)
		node := b.AddNode()
		b.AddEdge(g.Root(), ssd.Int(int64(i)), node)
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
		if _, err := ApplyInPlace(g, b); err != nil {
			t.Fatal(err)
		}
	}
	return base, w, g
}

func canonical(g *ssd.Graph) string { return ssd.FormatRoot(bisim.Canonicalize(g)) }

// TestTruncatePrefix cuts k batches off a 5-batch log and checks that the
// remaining log, bound to the state after k batches, replays to the final
// state — for every k including 0 (rebind only) and 5 (full reset).
func TestTruncatePrefix(t *testing.T) {
	for k := 0; k <= 5; k++ {
		path := filepath.Join(t.TempDir(), "wal.log")
		base, w, final := truncBase(t, path, 5)

		// State after k batches = snapshot the truncated log must extend.
		mid := base.Clone()
		for i := 0; i < k; i++ {
			b := NewBatch(mid)
			node := b.AddNode()
			b.AddEdge(mid.Root(), ssd.Int(int64(i)), node)
			if _, err := ApplyInPlace(mid, b); err != nil {
				t.Fatal(err)
			}
		}

		if err := w.TruncatePrefix(k, Fingerprint(mid)); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got, want := w.Batches(), 5-k; got != want {
			t.Fatalf("k=%d: %d batches after truncate, want %d", k, got, want)
		}
		if w.BaseFingerprint() != Fingerprint(mid) {
			t.Fatalf("k=%d: header fingerprint not rebound", k)
		}
		w.Close()

		// Reopen against the mid state and replay: must equal final.
		rw, err := OpenWAL(path, Fingerprint(mid))
		if err != nil {
			t.Fatalf("k=%d reopen: %v", k, err)
		}
		if got, want := rw.Batches(), 5-k; got != want {
			t.Fatalf("k=%d reopen: %d batches, want %d", k, got, want)
		}
		re := mid.Clone()
		if err := rw.Replay(func(b *Batch) error {
			_, err := ApplyInPlace(re, b)
			return err
		}); err != nil {
			t.Fatalf("k=%d replay: %v", k, err)
		}
		rw.Close()
		if canonical(re) != canonical(final) {
			t.Fatalf("k=%d: truncated log replays to a different state", k)
		}
	}
}

// TestTruncatePrefixThenAppend checks the reopened file handle: appends
// after a truncation must land at the new end and survive a reopen.
func TestTruncatePrefixThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	_, w, final := truncBase(t, path, 3)
	fp := Fingerprint(final)
	if err := w.TruncatePrefix(3, fp); err != nil {
		t.Fatal(err)
	}
	g := final.Clone()
	b := NewBatch(g)
	node := b.AddNode()
	b.AddEdge(g.Root(), ssd.Sym("tail"), node)
	if err := w.Append(b); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyInPlace(g, b); err != nil {
		t.Fatal(err)
	}
	w.Close()

	rw, err := OpenWAL(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if rw.Batches() != 1 {
		t.Fatalf("got %d batches, want 1", rw.Batches())
	}
	re := final.Clone()
	if err := rw.Replay(func(b *Batch) error {
		_, err := ApplyInPlace(re, b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if canonical(re) != canonical(g) {
		t.Fatal("post-truncate append lost")
	}
}

// TestOpenWALMatching covers the recovery-side open: the matched
// fingerprint is reported, and a log bound to no accepted fingerprint is a
// hard error through both OpenWALMatching and OpenWAL (never set aside —
// that would silently drop acknowledged commits).
func TestOpenWALMatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	base, w, _ := truncBase(t, path, 2)
	w.Close()

	fp := Fingerprint(base)
	rw, matched, err := OpenWALMatching(path, 0x12345678, fp)
	if err != nil {
		t.Fatal(err)
	}
	if matched != fp {
		t.Fatalf("matched %08x, want %08x", matched, fp)
	}
	if rw.Batches() != 2 {
		t.Fatalf("got %d batches, want 2", rw.Batches())
	}
	rw.Close()

	if _, _, err := OpenWALMatching(path, 0x12345678); err == nil {
		t.Fatal("unknown binding accepted")
	}
	if _, err := OpenWAL(path, 0x12345678); err == nil {
		t.Fatal("OpenWAL accepted a log bound to another snapshot")
	}
	if _, statErr := os.Stat(path + ".stale"); !os.IsNotExist(statErr) {
		t.Fatal("a mismatched log was set aside")
	}
	if rw, err = OpenWAL(path, fp); err != nil || rw.Batches() != 2 {
		t.Fatalf("refused opens changed the log: %v", err)
	}
	rw.Close()

	// A fresh file is created bound to the first fingerprint.
	fresh := filepath.Join(t.TempDir(), "fresh.log")
	fw, matched, err := OpenWALMatching(fresh, 0xABCD)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if matched != 0xABCD || fw.BaseFingerprint() != 0xABCD {
		t.Fatalf("fresh log bound to %08x, want ABCD", matched)
	}
}
