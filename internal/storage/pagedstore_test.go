package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ssd"
	"repro/internal/workload"
)

// pageCall runs fn and classifies how it ended: nil if it returned or
// panicked with a "storage:" message, an error for any other panic.
func pageCall(fn func()) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case runtime.Error:
			err = fmt.Errorf("runtime error: %v", r)
		case string:
			if !strings.HasPrefix(r, "storage:") {
				err = fmt.Errorf("panic without storage: prefix: %q", r)
			}
		default:
			err = fmt.Errorf("unexpected panic %T: %v", r, r)
		}
	}()
	fn()
	return nil
}

// TestPageRecordBoolByteChecked: a bool edge label whose payload byte is
// 02 — a second spelling of true — fails its page at load, even with the
// page CRC recomputed to match.
func TestPageRecordBoolByteChecked(t *testing.T) {
	const pageSize = 128
	g := ssd.New()
	g.AddLeaf(g.Root(), ssd.Bool(true))
	path := filepath.Join(t.TempDir(), "pages.ssdp")
	if err := WritePageFile(path, g, ClusterDFS, pageSize); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	page := int(binary.LittleEndian.Uint32(clean[fileHdrLen+4*int(g.Root()):]))
	hdr := fileHdrLen + 4*g.NumNodes() + 4 + page*pageSize
	data := clean[hdr+pageHdrLen : hdr+pageHdrLen+int(binary.LittleEndian.Uint32(clean[hdr:]))]
	at := bytes.Index(data, []byte{byte(ssd.KindBool), 1})
	if at < 0 {
		t.Fatalf("no bool label on page %d: % x", page, data)
	}
	damaged := append([]byte(nil), clean...)
	damaged[hdr+pageHdrLen+at+1] = 2
	binary.LittleEndian.PutUint32(damaged[hdr+8:], crc32.ChecksumIEEE(damaged[hdr+pageHdrLen:hdr+pageHdrLen+len(data)]))
	dpath := filepath.Join(t.TempDir(), "damaged.ssdp")
	if err := os.WriteFile(dpath, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	ps, err := OpenPageFile(dpath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var got any
	func() {
		defer func() { got = recover() }()
		ps.Out(g.Root())
	}()
	if msg, ok := got.(string); !ok || !strings.Contains(msg, "bool label byte") {
		t.Fatalf("Out(root) on a page with bool byte 02: panic %v, want a bool label byte error", got)
	}
}

// TestPageRecordDamageDetectedAtLoad: a record damaged inside a page whose
// CRC was recomputed to match still fails the page when it loads, so Out
// on any node of that page panics on its first touch — including nodes
// whose own records are intact — while other pages keep serving.
func TestPageRecordDamageDetectedAtLoad(t *testing.T) {
	const pageSize = 128
	g := chainGraph(50) // 51 nodes: every id and edge target is one varint byte
	path := filepath.Join(t.TempDir(), "pages.ssdp")
	if err := WritePageFile(path, g, ClusterDFS, pageSize); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pagesOff := fileHdrLen + 4*g.NumNodes() + 4
	pageOf := func(n int) int {
		return int(binary.LittleEndian.Uint32(clean[fileHdrLen+4*n:]))
	}
	const page = 1
	var onPage []ssd.NodeID
	var offPage ssd.NodeID = -1
	for n := 0; n < g.NumNodes(); n++ {
		if pageOf(n) == page {
			onPage = append(onPage, ssd.NodeID(n))
		} else if offPage < 0 {
			offPage = ssd.NodeID(n)
		}
	}
	if len(onPage) < 3 {
		t.Fatalf("page %d holds %d records, want at least 3", page, len(onPage))
	}

	// Walk page 1's records to the last one: the offsets of its node id
	// and of its first edge's label kind byte and target. The last record,
	// so that no later record's parse can trip over the damage instead.
	hdr := pagesOff + page*pageSize
	nrec := int(binary.LittleEndian.Uint16(clean[hdr+4:]))
	data := clean[hdr+pageHdrLen : hdr+pageHdrLen+int(binary.LittleEndian.Uint32(clean[hdr:]))]
	var nodeAt, kindAt, toAt int
	r := reader{data: data}
	for i := 0; i < nrec; i++ {
		nodeAt = r.pos
		r.uvarint()
		deg, _ := r.uvarint()
		if i == nrec-1 {
			if deg == 0 {
				t.Fatal("last record is a leaf")
			}
			kindAt = r.pos
			r.skipLabel()
			toAt = r.pos
			break
		}
		for j := uint64(0); j < deg; j++ {
			r.skipLabel()
			r.uvarint()
		}
	}

	for _, tc := range []struct {
		name string
		at   int
		b    byte
	}{
		{"edge target out of range", toAt, 0x7f},
		{"unknown label kind", kindAt, 0xee},
		{"node recorded twice", nodeAt, data[0]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			damaged := append([]byte(nil), clean...)
			damaged[hdr+pageHdrLen+tc.at] = tc.b
			binary.LittleEndian.PutUint32(damaged[hdr+8:], crc32.ChecksumIEEE(
				damaged[hdr+pageHdrLen:hdr+pageHdrLen+len(data)]))
			dpath := filepath.Join(t.TempDir(), "pages.ssdp")
			if err := os.WriteFile(dpath, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			ps, err := OpenPageFile(dpath, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			for _, n := range onPage {
				var got any
				func() {
					defer func() { got = recover() }()
					ps.Out(n)
				}()
				msg, ok := got.(string)
				if !ok || !strings.HasPrefix(msg, "storage:") {
					t.Fatalf("Out(%d) on the damaged page: panic %v, want a storage: message", n, got)
				}
			}
			if got, want := ps.Out(offPage), g.Out(offPage); !reflect.DeepEqual(got, want) {
				t.Fatalf("Out(%d) on an intact page = %v, want %v", offPage, got, want)
			}
			if s := ps.Stats(); s.PinnedPages != 0 {
				t.Fatalf("pinned = %d after failed loads, want 0", s.PinnedPages)
			}
		})
	}
}

// TestPageStoreEvictedSlicesStayValid pins the escaped-slice contract that
// frame recycling puts at risk: slices handed out before their frames were
// evicted and their buffers reused for other pages still hold the edges
// they held when handed out.
func TestPageStoreEvictedSlicesStayValid(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(60))
	ps := openPaged(t, g, ClusterDFS, 128, 2*128) // 2-page pool
	held := make([][]ssd.Edge, g.NumNodes())
	for n := range held {
		held[n] = ps.Out(ssd.NodeID(n))
	}
	// A second scan through an accessor reuses every recycled buffer again.
	acc := ps.Accessor()
	ssd.ReachableFrom(acc, acc.Root())
	acc.Release()
	if s := ps.Stats(); s.Evictions < int64(ps.NumPages()) {
		t.Fatalf("%d evictions over %d pages: the scans did not cycle the pool", s.Evictions, ps.NumPages())
	}
	if len(ps.free) == 0 {
		t.Fatal("no evicted frame was kept for reuse")
	}
	for n, es := range held {
		if want := g.Out(ssd.NodeID(n)); !reflect.DeepEqual(es, want) {
			t.Fatalf("Out(%d) held across eviction = %v, want %v", n, es, want)
		}
	}
}

// TestPageStoreEvictedSlicesStayValidConcurrent: four readers, each with
// its own accessor, walk one image through a 2-page pool, so frames are
// loaded, decoded, evicted and recycled under one another. Every slice
// must match the in-memory graph when read and still match at the end.
func TestPageStoreEvictedSlicesStayValidConcurrent(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(200))
	ps := openPaged(t, g, ClusterDFS, 128, 2*128)
	const readers = 4
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := ps.Accessor()
			defer acc.Release()
			held := make([][]ssd.Edge, g.NumNodes())
			// Each reader starts its id sweep at a different offset so the
			// four hit different pages at any moment.
			for i := 0; i < g.NumNodes(); i++ {
				n := ssd.NodeID((i + w*g.NumNodes()/readers) % g.NumNodes())
				held[n] = acc.Out(n)
				if !reflect.DeepEqual(held[n], g.Out(n)) {
					errs <- fmt.Errorf("reader %d: Out(%d) = %v, want %v", w, n, held[n], g.Out(n))
					return
				}
			}
			for n, es := range held {
				if !reflect.DeepEqual(es, g.Out(ssd.NodeID(n))) {
					errs <- fmt.Errorf("reader %d: Out(%d) changed after the sweep", w, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := ps.Stats(); s.PinnedPages != 0 || s.Evictions == 0 {
		t.Errorf("after the readers: %d pinned, %d evictions; want 0 pinned and some evictions", s.PinnedPages, s.Evictions)
	}
}

// withChecksums returns a copy of a page file image whose header and run
// checksums are recomputed wherever the image's own fields locate them, so
// fuzzed bytes get past the CRCs into the directory and record checks.
func withChecksums(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < fileHdrLen {
		return out
	}
	pageSize := int(binary.LittleEndian.Uint32(out[8:]))
	numPages := int(binary.LittleEndian.Uint32(out[12:]))
	headLen := fileHdrLen + 4*int(binary.LittleEndian.Uint32(out[16:])) + 4
	if headLen > len(out) {
		return out
	}
	binary.LittleEndian.PutUint32(out[headLen-4:], crc32.ChecksumIEEE(out[:headLen-4]))
	if pageSize < MinPageSize {
		return out
	}
	for p := 0; p < numPages; p++ {
		hdr := headLen + p*pageSize
		if hdr+pageHdrLen > len(out) {
			break
		}
		end := hdr + pageHdrLen + int(binary.LittleEndian.Uint32(out[hdr:]))
		if end <= len(out) {
			binary.LittleEndian.PutUint32(out[hdr+8:], crc32.ChecksumIEEE(out[hdr+pageHdrLen:end]))
		}
	}
	return out
}

// FuzzPageFile feeds arbitrary bytes to the page-file reader, as they are
// and with their checksums recomputed: opening either fails, or every
// node's Out returns or panics with a storage: message — never a runtime
// error, never a hang.
func FuzzPageFile(f *testing.F) {
	for _, g := range []*ssd.Graph{chainGraph(40), workload.Movies(workload.DefaultMovieConfig(6))} {
		for _, pageSize := range []int{64, 128, 4096} {
			path := filepath.Join(f.TempDir(), "seed.ssdp")
			if err := WritePageFile(path, g, ClusterDFS, pageSize); err != nil {
				f.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "pages.ssdp")
		for _, img := range [][]byte{data, withChecksums(data)} {
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			checkPageFile(t, path)
		}
	})
}

// checkPageFile is FuzzPageFile's oracle for one image. It releases
// nothing after a failure: a runtime panic may have left the pool locked,
// and the report must not hang behind it.
func checkPageFile(t *testing.T, path string) {
	// A pool of a few small pages makes loads evict and recycle.
	ps, err := OpenPageFile(path, 256)
	if err != nil {
		return
	}
	acc := ps.Accessor()
	for v := 0; v < ps.NumNodes(); v++ {
		n := ssd.NodeID(v)
		if err := pageCall(func() { ps.Out(n) }); err != nil {
			t.Fatalf("Out(%d): %v", n, err)
		}
		if err := pageCall(func() { acc.Out(n) }); err != nil {
			t.Fatalf("accessor Out(%d): %v", n, err)
		}
	}
	acc.Release()
	ps.Close()
}
