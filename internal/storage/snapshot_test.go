package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/ssd"
	"repro/internal/stats"
)

func snapGraph(t testing.TB) *ssd.Graph {
	t.Helper()
	g, err := ssd.Parse(`{movie: {title: "Casablanca", year: 1942, cast: {actor: "Bogart", actor: "Bergman"}},
	                      movie: {title: "Sleeper", year: 1973},
	                      series: {title: "Decalogue", rating: 9.1, complete: true}}`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fullSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	g := snapGraph(t)
	return &Snapshot{
		Graph:     g,
		Labels:    index.BuildLabelIndex(g),
		Values:    index.BuildValueIndex(g),
		Guide:     dataguide.MustBuild(g),
		Stats:     stats.Build(g),
		WALBaseFP: 0xDEADBEEF,
		Applied:   7,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := fullSnapshot(t)
	data := EncodeSnapshot(s)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.SelfFP != s.SelfFP || got.WALBaseFP != 0xDEADBEEF || got.Applied != 7 {
		t.Fatalf("meta mismatch: got fp=%08x base=%08x applied=%d", got.SelfFP, got.WALBaseFP, got.Applied)
	}
	if want, have := ssd.FormatRoot(s.Graph), ssd.FormatRoot(got.Graph); want != have {
		t.Fatalf("graph mismatch:\nwant %s\ngot  %s", want, have)
	}
	// The restored indexes must answer identically: compare dumps.
	if !reflect.DeepEqual(s.Labels.Dump(), got.Labels.Dump()) {
		t.Fatal("label index dump mismatch after round trip")
	}
	if !reflect.DeepEqual(s.Values.Dump(), got.Values.Dump()) {
		t.Fatal("value index dump mismatch after round trip")
	}
	if want, have := ssd.FormatRoot(s.Guide.G), ssd.FormatRoot(got.Guide.G); want != have {
		t.Fatalf("guide graph mismatch:\nwant %s\ngot  %s", want, have)
	}
	if !reflect.DeepEqual(s.Guide.Extent, got.Guide.Extent) {
		t.Fatal("guide extents mismatch after round trip")
	}
	if got.Stats == nil || !reflect.DeepEqual(s.Stats.Dump(), got.Stats.Dump()) {
		t.Fatal("stats dump mismatch after round trip")
	}
}

// TestSnapshotSignedZeroLabels: -0 and +0 are distinct labels with
// distinct statistics and postings, which a snapshot holding both must
// write in one order and read back; the graph reads back label for label.
func TestSnapshotSignedZeroLabels(t *testing.T) {
	g := ssd.New()
	neg := ssd.Float(math.Copysign(0, -1))
	for _, l := range []ssd.Label{neg, ssd.Float(0), neg, ssd.Int(0)} {
		g.AddEdge(g.Root(), l, g.AddNode())
	}
	s := &Snapshot{Graph: g, Labels: index.BuildLabelIndex(g), Guide: dataguide.MustBuild(g), Stats: stats.Build(g)}
	if n := len(s.Stats.Dump().Labels); n != 3 {
		t.Fatalf("stats hold %d labels, want 3", n)
	}
	data := EncodeSnapshot(s)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeSnapshot(got), data) {
		t.Fatal("the snapshot does not re-encode to its own bytes")
	}
	if !slices.Equal(g.Out(g.Root()), got.Graph.Out(got.Graph.Root())) {
		t.Fatalf("root edges %v read back as %v", g.Out(g.Root()), got.Graph.Out(got.Graph.Root()))
	}
}

func TestSnapshotOptionalSections(t *testing.T) {
	g := snapGraph(t)
	s := &Snapshot{Graph: g}
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Labels != nil || got.Values != nil || got.Guide != nil || got.Stats != nil {
		t.Fatal("decoded structures for sections that were never written")
	}
	if want, have := ssd.FormatRoot(g), ssd.FormatRoot(got.Graph); want != have {
		t.Fatal("graph mismatch without optional sections")
	}
}

// TestSnapshotSelfFPIsWALFingerprint pins the binding contract: the
// snapshot's fingerprint is exactly the WAL binding fingerprint of its
// graph (crc32 of the SSDG encoding), so core can match logs to snapshots.
func TestSnapshotSelfFPIsWALFingerprint(t *testing.T) {
	g := snapGraph(t)
	s := &Snapshot{Graph: g}
	EncodeSnapshot(s)
	if want := crc32.ChecksumIEEE(Encode(g)); s.SelfFP != want {
		t.Fatalf("SelfFP = %08x, want crc32(Encode(g)) = %08x", s.SelfFP, want)
	}
}

// TestSnapshotCorruption damages the encoded form at every byte position
// and asserts the decoder never accepts the result silently: it either
// errors or — for bytes outside any checked region — still produces a
// graph. Specifically, truncations and payload flips must all error.
func TestSnapshotCorruption(t *testing.T) {
	data := EncodeSnapshot(fullSnapshot(t))

	// Truncation at every prefix length must fail (torn write mid-section).
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	// Flipping any single byte must fail: every region is either framing
	// (checked structurally, including section kind bytes) or payload
	// (checked by CRC).
	for i := 5; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("flip at byte %d decoded successfully", i)
		}
	}
	// Bad magic and bad version.
	mut := append([]byte(nil), data...)
	mut[0] = 'X'
	if _, err := DecodeSnapshot(mut); err == nil {
		t.Fatal("bad magic accepted")
	}
	mut = append([]byte(nil), data...)
	mut[4] = 99
	if _, err := DecodeSnapshot(mut); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: got %v", err)
	}
}

// TestSnapshotUnknownKind pins the closed-section-set rule per version: a
// correctly framed section whose kind the version does not define is
// rejected, both above the current maximum (kind 7 in a v4 file) and for a
// newer section appearing in an older file (a stats section in a v1 file).
func TestSnapshotUnknownKind(t *testing.T) {
	g := snapGraph(t)

	// v4 image with a well-formed kind-7 section spliced in before the end
	// marker.
	base := &Snapshot{Graph: g}
	data := EncodeSnapshot(base)
	endLen := len(appendSection(nil, secEnd, nil))
	body := data[:len(data)-endLen]
	body = appendSection(body, 7, []byte("future"))
	body = appendSection(body, secEnd, nil)
	if _, err := DecodeSnapshot(body); err == nil || !strings.Contains(err.Error(), "unknown snapshot section") {
		t.Fatalf("kind 7 in v4 image: got %v", err)
	}

	// v1 image containing a stats section: kind 6 was not defined in
	// version 1, so patching the version byte down must make the decoder
	// reject the (individually intact) stats section.
	withStats := EncodeSnapshot(&Snapshot{Graph: g, Stats: stats.Build(g)})
	v1 := append([]byte(nil), withStats...)
	v1[4] = 1
	if _, err := DecodeSnapshot(v1); err == nil || !strings.Contains(err.Error(), "unknown snapshot section") {
		t.Fatalf("stats section in v1 image: got %v", err)
	}
}

// TestSnapshotV1BackCompat: a version-1 image (no stats section) still
// decodes after the version bump, so upgrading the binary never invalidates
// an existing snapshot generation.
func TestSnapshotV1BackCompat(t *testing.T) {
	s := &Snapshot{
		Graph:  snapGraph(t),
		Labels: index.BuildLabelIndex(snapGraph(t)),
	}
	data := EncodeSnapshot(s)
	v1 := append([]byte(nil), data...)
	v1[4] = 1 // sections meta/graph/labels are all defined in version 1
	got, err := DecodeSnapshot(v1)
	if err != nil {
		t.Fatalf("v1 image rejected: %v", err)
	}
	if want, have := ssd.FormatRoot(s.Graph), ssd.FormatRoot(got.Graph); want != have {
		t.Fatal("graph mismatch decoding v1 image")
	}
	if got.Stats != nil {
		t.Fatal("stats materialized from a v1 image that cannot contain them")
	}
}

// encodeStatsV2 writes g's statistics in the version-2 stats layout: each
// label's source refcounts followed by its destination refcounts.
func encodeStatsV2(g *ssd.Graph) []byte { return encodeRefcountStats(g, true) }

// encodeStatsV3 writes g's statistics in the version-3 stats layout: each
// label's source refcounts only.
func encodeStatsV3(g *ssd.Graph) []byte { return encodeRefcountStats(g, false) }

func encodeRefcountStats(g *ssd.Graph, withDsts bool) []byte {
	srcs := make(map[ssd.Label]map[ssd.NodeID]int)
	dsts := make(map[ssd.Label]map[ssd.NodeID]int)
	ref := func(m map[ssd.Label]map[ssd.NodeID]int, l ssd.Label, n ssd.NodeID) {
		if m[l] == nil {
			m[l] = make(map[ssd.NodeID]int)
		}
		m[l][n]++
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(ssd.NodeID(v)) {
			ref(srcs, e.Label, ssd.NodeID(v))
			ref(dsts, e.Label, e.To)
		}
	}
	appendCounts := func(buf []byte, m map[ssd.NodeID]int) []byte {
		buf = binary.AppendUvarint(buf, uint64(len(m)))
		for n := 0; n < g.NumNodes(); n++ {
			if c := m[ssd.NodeID(n)]; c > 0 {
				buf = binary.AppendUvarint(buf, uint64(n))
				buf = binary.AppendUvarint(buf, uint64(c))
			}
		}
		return buf
	}
	d := stats.Build(g).Dump() // edge total, histogram, label order
	buf := binary.AppendUvarint(nil, uint64(d.Edges))
	for _, c := range d.Hist {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Labels)))
	for _, lc := range d.Labels {
		buf = ssd.AppendLabel(buf, lc.Label)
		buf = binary.AppendUvarint(buf, uint64(lc.Count))
		buf = appendCounts(buf, srcs[lc.Label])
		if withDsts {
			buf = appendCounts(buf, dsts[lc.Label])
		}
	}
	return buf
}

// snapshotImage frames meta, graph and stats sections for g under the given
// format version.
func snapshotImage(g *ssd.Graph, version byte, statsPayload []byte) []byte {
	img := append([]byte(snapMagic), version)
	img = appendSection(img, secMeta, encodeMetaFor(g))
	img = appendSection(img, secGraph, Encode(g))
	img = appendSection(img, secStats, statsPayload)
	return appendSection(img, secEnd, nil)
}

// TestSnapshotV2BackCompat: a version-2 image, whose stats section also
// carries per-label destination refcounts, still decodes to the statistics
// a rebuild of its graph gives; a destination out of range is still
// rejected.
func TestSnapshotV2BackCompat(t *testing.T) {
	g := snapGraph(t)
	v2 := encodeStatsV2(g)
	got, err := DecodeSnapshot(snapshotImage(g, 2, v2))
	if err != nil {
		t.Fatalf("v2 image rejected: %v", err)
	}
	if got.Stats == nil || !reflect.DeepEqual(got.Stats.Dump(), stats.Build(g).Dump()) {
		t.Fatal("v2 stats differ from a rebuild of the graph")
	}
	// The same payload is not a valid v3 section: the destination lists
	// read as trailing bytes or as the next label.
	if _, err := DecodeSnapshot(snapshotImage(g, 3, v2)); err == nil {
		t.Fatal("v2 stats layout accepted in a v3 image")
	}

	// Point the last destination of the last label past the graph: the
	// skipped lists keep their node-range check. Every node id here fits
	// one uvarint byte, and the payload ends with that node's (id, refs).
	bad := append([]byte(nil), v2...)
	bad[len(bad)-2] = byte(g.NumNodes())
	if _, err := DecodeSnapshot(snapshotImage(g, 2, bad)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range v2 destination: got %v", err)
	}
}

// TestSnapshotStatsVersions: an image of every format version opens with
// the statistics a rebuild of its graph gives — none for version 1, which
// has no stats section, so the database builds them — and the current
// version writes one varint pair per label, not per source node.
func TestSnapshotStatsVersions(t *testing.T) {
	g := snapGraph(t)
	want := stats.Build(g).Dump()
	v1 := EncodeSnapshot(&Snapshot{Graph: g})
	v1[4] = 1
	for _, c := range []struct {
		version byte
		image   []byte
	}{
		{1, v1},
		{2, snapshotImage(g, 2, encodeStatsV2(g))},
		{3, snapshotImage(g, 3, encodeStatsV3(g))},
		{4, EncodeSnapshot(&Snapshot{Graph: g, Stats: stats.Build(g)})},
	} {
		got, err := DecodeSnapshot(c.image)
		if err != nil {
			t.Fatalf("v%d image rejected: %v", c.version, err)
		}
		st := got.Stats
		if c.version == 1 {
			if st != nil {
				t.Fatal("stats materialized from a v1 image")
			}
			st = stats.Build(got.Graph)
		}
		if st == nil || !reflect.DeepEqual(st.Dump(), want) {
			t.Fatalf("v%d stats differ from a rebuild of the graph", c.version)
		}
	}
	if v3, v4 := len(encodeStatsV3(g)), len(encodeStats(stats.Build(g))); v4 >= v3 {
		t.Fatalf("v4 stats section %d bytes, v3 %d", v4, v3)
	}
}

// TestSnapshotStatsCorruption damages the stats payload in ways that keep
// the CRC frame valid (recomputing the checksum) and asserts the structural
// validation in the decoder and stats.FromDump still rejects the section.
func TestSnapshotStatsCorruption(t *testing.T) {
	g := snapGraph(t)
	payload := encodeStats(stats.Build(g))

	// Recompute a valid frame around a damaged payload: bump the edge total
	// (first uvarint) without touching per-label counts.
	bad := append([]byte(nil), payload...)
	bad[0]++ // edge counts here are small, so byte 0 is the whole uvarint
	if _, err := DecodeSnapshot(snapshotImage(g, snapVersion, bad)); err == nil {
		t.Fatal("inconsistent stats section accepted")
	}

	// v4: the payload ends with the last label's (count, sources), each one
	// byte here; the last label has one edge from one source.
	if n := len(payload); payload[n-2] != 1 || payload[n-1] != 1 {
		t.Fatalf("last label (count, sources) = (%d, %d), want (1, 1)", payload[n-2], payload[n-1])
	}
	for name, damage := range map[string]func(p []byte){
		"zero sources":        func(p []byte) { p[len(p)-1] = 0 },
		"sources above count": func(p []byte) { p[len(p)-1] = 2 },
		"bad edge total":      func(p []byte) { p[len(p)-2] = 2 },
	} {
		bad := append([]byte(nil), payload...)
		damage(bad)
		if _, err := DecodeSnapshot(snapshotImage(g, 4, bad)); err == nil {
			t.Errorf("v4 %s accepted", name)
		}
	}

	// v3: the payload ends with the last label's refcount list, one
	// (node, refs) pair of one-byte varints. A refcount above the label's
	// count breaks sum = count; so does a list whose sum falls short.
	v3 := encodeStatsV3(g)
	if _, err := DecodeSnapshot(snapshotImage(g, 3, v3)); err != nil {
		t.Fatalf("v3 image rejected: %v", err)
	}
	for name, damage := range map[string]func(p []byte) []byte{
		"refcount sum above count": func(p []byte) []byte { p[len(p)-1] = 2; return p },
		"zero refcount":            func(p []byte) []byte { p[len(p)-1] = 0; return p },
		"refcount sum below count": func(p []byte) []byte {
			// actor: count 2, one source with refs 2 → refs 1
			at := ssd.AppendLabel(nil, ssd.Sym("actor"))
			i := bytes.Index(p, at) + len(at)
			if i < len(at) || !bytes.Equal(p[i:i+2], []byte{2, 1}) || p[i+3] != 2 {
				t.Fatalf("actor record not (count 2, one source, refs 2): % x", p[i:i+4])
			}
			p[i+3] = 1
			return p
		},
	} {
		bad := damage(append([]byte(nil), v3...))
		if _, err := DecodeSnapshot(snapshotImage(g, 3, bad)); err == nil {
			t.Errorf("v3 %s accepted", name)
		}
	}
}

// FuzzSnapshotStats: decoding a stats payload of any version that carries
// the section never panics, and an accepted payload re-encodes in the
// current layout to the same statistics.
func FuzzSnapshotStats(f *testing.F) {
	g := snapGraph(f)
	f.Add(byte(2), encodeStatsV2(g))
	f.Add(byte(3), encodeStatsV3(g))
	f.Add(byte(snapVersion), encodeStats(stats.Build(g)))
	f.Fuzz(func(t *testing.T, version byte, data []byte) {
		version = 2 + version%(snapVersion-1)
		st, err := decodeStats(data, g.NumNodes(), version)
		if err != nil {
			return
		}
		again, err := decodeStats(encodeStats(st), g.NumNodes(), snapVersion)
		if err != nil {
			t.Fatalf("accepted v%d payload re-encodes to a rejected one: %v", version, err)
		}
		if !reflect.DeepEqual(st.Dump(), again.Dump()) {
			t.Fatalf("v%d payload changed through a re-encode:\n got %+v\nwant %+v", version, again.Dump(), st.Dump())
		}
	})
}

// encodeMetaFor builds a meta section binding to g, mirroring
// EncodeSnapshot's layout for tests that assemble images by hand.
func encodeMetaFor(g *ssd.Graph) []byte {
	fp := crc32.ChecksumIEEE(Encode(g))
	meta := make([]byte, 0, 12)
	meta = appendUint32LE(meta, fp)
	meta = appendUint32LE(meta, 0)
	return append(meta, 0) // applied = 0 as a one-byte uvarint
}

func appendUint32LE(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func TestWriteSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap-1.ssds")
	s := fullSnapshot(t)
	n, err := WriteSnapshotFile(path, s)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("reported %d bytes, file has %d", n, fi.Size())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SelfFP != s.SelfFP {
		t.Fatal("file round trip changed fingerprint")
	}
}

// TestRestoredGuideSupportsApplyDelta exercises the recovery contract of
// dataguide.Restore: a restored guide continues the incremental
// maintenance chain (its intern table was rebuilt from the extents).
func TestRestoredGuideSupportsApplyDelta(t *testing.T) {
	g := snapGraph(t)
	s := &Snapshot{Graph: g, Guide: dataguide.MustBuild(g)}
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the decoded graph: add one edge at the root, then maintain.
	g2 := got.Graph.Clone()
	n := g2.AddNode()
	g2.AddEdge(g2.Root(), ssd.Sym("short"), n)
	g2.AddEdge(n, ssd.Str("film"), g2.AddNode())
	ng, ok := got.Guide.ApplyDelta(g2, ssd.Delta{Added: []ssd.EdgeRec{
		{From: g2.Root(), Label: ssd.Sym("short"), To: n},
		{From: n, Label: ssd.Str("film"), To: ssd.NodeID(g2.NumNodes() - 1)},
	}}, 0)
	if !ok {
		t.Fatal("ApplyDelta declined on a restored guide")
	}
	want := dataguide.MustBuild(g2)
	if wantS, haveS := ssd.FormatRoot(want.G), ssd.FormatRoot(ng.G); wantS != haveS {
		t.Fatalf("maintained guide differs from rebuilt guide:\nwant %s\ngot  %s", wantS, haveS)
	}
}
