package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bisim"
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

// fullSnapshot sets every Snapshot field, the three the codec ignores too.
func fullSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	g := snapGraph(t)
	return &Snapshot{
		Graph:     g,
		Labels:    index.BuildLabelIndex(g),
		Values:    index.BuildValueIndex(g),
		Stats:     stats.Build(g),
		WALBaseFP: 0xDEADBEEF,
		Applied:   7,
		CommitSeq: 9,
	}
}

// legacyImage reads testdata/legacy/v<version>.ssds: snapGraph at Applied 2
// and CommitSeq 3, written by a build that persisted derived structures, with
// every section kind its version defines — labels, values and guide, plus
// stats from version 2 on (per-node source and destination refcounts in
// version 2, source refcounts in version 3, source counts from version 4).
func legacyImage(t testing.TB, version byte) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", fmt.Sprintf("v%d.ssds", version)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// secFrame is one section of an image: its kind, and the offsets of its kind
// byte, its payload and its end.
type secFrame struct {
	kind             byte
	at, payload, end int
}

// frames walks an image's section frames, checking neither kinds nor
// CRCs, up to the first frame that does not fit in data.
func frames(data []byte) []secFrame {
	var out []secFrame
	for pos := 5; pos < len(data); {
		n, next, err := ReadUvarint(data, pos+1)
		if err != nil || n > uint64(len(data)) || next+4+int(n) > len(data) {
			break
		}
		f := secFrame{kind: data[pos], at: pos, payload: next + 4, end: next + 4 + int(n)}
		out = append(out, f)
		pos = f.end
	}
	return out
}

func kinds(data []byte) []byte {
	var ks []byte
	for _, f := range frames(data) {
		ks = append(ks, f.kind)
	}
	return ks
}

// resealed returns a copy of a snapshot image with the meta fingerprint
// rebound to the graph section and every section's CRC recomputed, so a
// fuzzed byte inside a payload reaches the payload's decoder instead of
// failing a checksum.
func resealed(data []byte) []byte {
	out := append([]byte(nil), data...)
	fs := frames(out)
	var meta, graph []byte
	for _, f := range fs {
		switch f.kind {
		case secMeta:
			meta = out[f.payload:f.end]
		case secGraph:
			graph = out[f.payload:f.end]
		}
	}
	if len(meta) >= 4 && graph != nil {
		binary.LittleEndian.PutUint32(meta, crc32.ChecksumIEEE(graph))
	}
	for _, f := range fs {
		binary.LittleEndian.PutUint32(out[f.payload-4:], crc32.ChecksumIEEE(out[f.payload:f.end]))
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := fullSnapshot(t)
	data := EncodeSnapshot(s)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.SelfFP != s.SelfFP || got.WALBaseFP != 0xDEADBEEF || got.Applied != 7 || got.CommitSeq != 9 {
		t.Fatalf("meta mismatch: got fp=%08x base=%08x applied=%d seq=%d", got.SelfFP, got.WALBaseFP, got.Applied, got.CommitSeq)
	}
	if want, have := ssd.FormatRoot(s.Graph), ssd.FormatRoot(got.Graph); want != have {
		t.Fatalf("graph mismatch:\nwant %s\ngot  %s", want, have)
	}
	if got.Labels != nil || got.Values != nil || got.Stats != nil {
		t.Fatal("decoded derived structures from a graph-only image")
	}
	if !bytes.Equal(EncodeSnapshot(got), data) {
		t.Fatal("the snapshot does not re-encode to its own bytes")
	}
}

// TestSnapshotSignedZeroLabels: -0 and +0 are distinct labels, which a
// snapshot holding both must write in one order and read back label for
// label.
func TestSnapshotSignedZeroLabels(t *testing.T) {
	g := ssd.New()
	neg := ssd.Float(math.Copysign(0, -1))
	for _, l := range []ssd.Label{neg, ssd.Float(0), neg, ssd.Int(0)} {
		g.AddEdge(g.Root(), l, g.AddNode())
	}
	data := EncodeSnapshot(&Snapshot{Graph: g})
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

// TestSnapshotOptionalSections: EncodeSnapshot writes exactly meta, graph
// and the end marker, even when Labels, Values and Stats are set: the
// derived structures are never persisted.
func TestSnapshotOptionalSections(t *testing.T) {
	s := fullSnapshot(t)
	data := EncodeSnapshot(s)
	if got, want := kinds(data), []byte{secMeta, secGraph, secEnd}; !bytes.Equal(got, want) {
		t.Fatalf("sections %v, want %v", got, want)
	}
	bare := &Snapshot{Graph: s.Graph, WALBaseFP: s.WALBaseFP, Applied: s.Applied, CommitSeq: s.CommitSeq}
	if !bytes.Equal(EncodeSnapshot(bare), data) {
		t.Fatal("Labels, Values or Stats changed the encoding")
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

// TestSnapshotCorruption damages images at every byte position — the
// current graph-only encoding and legacy images whose derived sections the
// reader no longer parses — and asserts the decoder never accepts the
// result: truncations and single-byte flips must all error, because every
// region is either framing (checked structurally, including section kind
// bytes) or payload (checked by CRC).
func TestSnapshotCorruption(t *testing.T) {
	for name, data := range map[string][]byte{
		"current": EncodeSnapshot(fullSnapshot(t)),
		"v2":      legacyImage(t, 2),
		"v5":      legacyImage(t, 5),
	} {
		for cut := 0; cut < len(data); cut++ {
			if _, err := DecodeSnapshot(data[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d bytes decoded successfully", name, cut)
			}
		}
		for i := 5; i < len(data); i++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0x40
			if _, err := DecodeSnapshot(mut); err == nil {
				t.Fatalf("%s: flip at byte %d decoded successfully", name, i)
			}
		}
	}
	data := EncodeSnapshot(fullSnapshot(t))
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
	// Meta holds exactly four fields; a fifth is a second encoding.
	m := frames(data)[0]
	meta := append(append([]byte(nil), data[m.payload:m.end]...), 0)
	img := append([]byte(snapMagic), snapVersion)
	img = appendSection(img, secMeta, meta)
	img = appendSection(img, secGraph, Encode(snapGraph(t)))
	img = appendSection(img, secEnd, nil)
	if _, err := DecodeSnapshot(img); err == nil || !strings.Contains(err.Error(), "meta") {
		t.Fatalf("trailing meta byte: got %v", err)
	}
}

// TestSnapshotUnknownKind pins the closed-section-set rule per version: a
// correctly framed section whose kind the version does not define is
// rejected, both above the current maximum (kind 7 in a v5 file) and for a
// newer section appearing in an older file (a stats section in a v1 file).
func TestSnapshotUnknownKind(t *testing.T) {
	data := EncodeSnapshot(&Snapshot{Graph: snapGraph(t)})
	endLen := len(appendSection(nil, secEnd, nil))
	body := data[:len(data)-endLen]
	body = appendSection(body, 7, []byte("future"))
	body = appendSection(body, secEnd, nil)
	if _, err := DecodeSnapshot(body); err == nil || !strings.Contains(err.Error(), "unknown snapshot section") {
		t.Fatalf("kind 7 in v5 image: got %v", err)
	}

	v1 := legacyImage(t, 2)
	v1[4] = 1
	if _, err := DecodeSnapshot(v1); err == nil || !strings.Contains(err.Error(), "unknown snapshot section") {
		t.Fatalf("stats section in v1 image: got %v", err)
	}
}

// checkLegacy asserts that a decoded legacy image is snapGraph at its
// recorded log position.
func checkLegacy(t *testing.T, version byte, s *Snapshot) {
	t.Helper()
	if want, have := ssd.FormatRoot(snapGraph(t)), ssd.FormatRoot(s.Graph); want != have {
		t.Fatalf("v%d graph mismatch:\nwant %s\ngot  %s", version, want, have)
	}
	if s.Applied != 2 || s.CommitSeq != 3 || s.SelfFP != crc32.ChecksumIEEE(Encode(s.Graph)) {
		t.Fatalf("v%d meta: applied %d, seq %d, fp %08x", version, s.Applied, s.CommitSeq, s.SelfFP)
	}
}

// TestSnapshotV1BackCompat: a version-1 image (labels, values and guide
// sections, no stats) still opens, so upgrading the binary never
// invalidates an existing snapshot generation.
func TestSnapshotV1BackCompat(t *testing.T) {
	got, err := DecodeSnapshot(legacyImage(t, 1))
	if err != nil {
		t.Fatalf("v1 image rejected: %v", err)
	}
	checkLegacy(t, 1, got)
}

// TestSnapshotV2BackCompat: a version-2 image, whose stats section also
// carries per-label destination refcounts, still opens; a version-3 file
// holding the same sections opens too, since the payload of a derived
// section is never parsed.
func TestSnapshotV2BackCompat(t *testing.T) {
	v2 := legacyImage(t, 2)
	got, err := DecodeSnapshot(v2)
	if err != nil {
		t.Fatalf("v2 image rejected: %v", err)
	}
	checkLegacy(t, 2, got)
	v2[4] = 3
	if got, err = DecodeSnapshot(v2); err != nil {
		t.Fatalf("v2 sections in a v3 image rejected: %v", err)
	}
	checkLegacy(t, 3, got)
}

// TestSnapshotStatsVersions: an image of every format version opens to its
// graph and position, carrying the section kinds its version defines, and
// re-encodes to meta and graph only — the statistics a database plans with
// are built from the graph, whatever the file held.
func TestSnapshotStatsVersions(t *testing.T) {
	for version := byte(1); version <= snapVersion; version++ {
		data := legacyImage(t, version)
		want := []byte{secMeta, secGraph, secLabels, secValues, secGuide, secStats, secEnd}
		if version == 1 {
			want = slices.Delete(want, 5, 6)
		}
		if got := kinds(data); !bytes.Equal(got, want) {
			t.Fatalf("v%d fixture sections %v, want %v", version, got, want)
		}
		s, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("v%d image rejected: %v", version, err)
		}
		checkLegacy(t, version, s)
		if got := kinds(EncodeSnapshot(s)); !bytes.Equal(got, []byte{secMeta, secGraph, secEnd}) {
			t.Fatalf("v%d re-encodes to sections %v", version, got)
		}
	}
}

// TestSnapshotStatsCorruption: the stats section is not parsed, but damage
// to it is caught by its frame at every version that defines it — a
// flipped payload byte fails the CRC, so does a shortened length, and a
// second stats section is a duplicate.
func TestSnapshotStatsCorruption(t *testing.T) {
	for version := byte(2); version <= snapVersion; version++ {
		data := legacyImage(t, version)
		fs := frames(data)
		st := fs[len(fs)-2]
		if st.kind != secStats {
			t.Fatalf("v%d: section before the end marker is %d", version, st.kind)
		}
		flip := append([]byte(nil), data...)
		flip[st.payload] ^= 1
		if _, err := DecodeSnapshot(flip); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Errorf("v%d flipped stats byte: got %v", version, err)
		}
		short := append([]byte(nil), data...)
		short[st.at+1]-- // the length: one byte here, so the payload is shorter than 128
		if _, err := DecodeSnapshot(short); err == nil {
			t.Errorf("v%d shortened stats section accepted", version)
		}
		dup := append([]byte(nil), data[:st.end]...)
		dup = append(dup, data[st.at:]...)
		if _, err := DecodeSnapshot(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("v%d duplicated stats section: got %v", version, err)
		}
	}
}

// TestCommittedImagesOpen: every snapshot image committed under testdata —
// this package's legacy images and internal/core's durable fixtures —
// still opens.
func TestCommittedImagesOpen(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "legacy", "*.ssds"))
	core, _ := filepath.Glob(filepath.Join("..", "core", "testdata", "*", "*.ssds"))
	if len(paths) != int(snapVersion) || len(core) < 2 {
		t.Fatalf("found %d legacy and %d core images", len(paths), len(core))
	}
	for _, p := range append(paths, core...) {
		if _, err := ReadSnapshotFile(p); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// FuzzSnapshot: decoding any bytes as a snapshot image, as they are and
// resealed, never panics. An accepted image re-encodes to bytes that decode
// to the same fingerprints, position and canonical graph — the SelfFP
// comparison also catches a graph section that was not Encode's one
// encoding of its graph — and re-encoding those bytes gives them back
// unchanged.
func FuzzSnapshot(f *testing.F) {
	for v := byte(1); v <= snapVersion; v++ {
		f.Add(legacyImage(f, v))
	}
	g := snapGraph(f)
	g.SetOID(1, "m1")
	g.SetOID(4, "")
	f.Add(EncodeSnapshot(&Snapshot{Graph: g, WALBaseFP: 1, Applied: 2, CommitSeq: 3}))
	core, _ := filepath.Glob(filepath.Join("..", "core", "testdata", "*", "*.ssds"))
	for _, p := range core {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotImage(t, data)
		checkSnapshotImage(t, resealed(data))
	})
}

// checkSnapshotImage is FuzzSnapshot's oracle for one image.
func checkSnapshotImage(t *testing.T, data []byte) {
	s, err := DecodeSnapshot(data)
	if err != nil {
		return
	}
	once := EncodeSnapshot(&Snapshot{Graph: s.Graph, WALBaseFP: s.WALBaseFP, Applied: s.Applied, CommitSeq: s.CommitSeq})
	again, err := DecodeSnapshot(once)
	if err != nil {
		t.Fatalf("accepted image re-encodes to a rejected one: %v", err)
	}
	if again.SelfFP != s.SelfFP {
		t.Fatalf("SelfFP %08x re-encodes as %08x: the graph section was not canonical", s.SelfFP, again.SelfFP)
	}
	if again.WALBaseFP != s.WALBaseFP || again.Applied != s.Applied || again.CommitSeq != s.CommitSeq {
		t.Fatalf("position (%08x, %d, %d) re-encodes as (%08x, %d, %d)",
			s.WALBaseFP, s.Applied, s.CommitSeq, again.WALBaseFP, again.Applied, again.CommitSeq)
	}
	if a, b := ssd.FormatRoot(bisim.Canonicalize(s.Graph)), ssd.FormatRoot(bisim.Canonicalize(again.Graph)); a != b {
		t.Fatalf("graph changed through a re-encode:\n got %s\nwant %s", b, a)
	}
	if twice := EncodeSnapshot(again); !bytes.Equal(twice, once) {
		t.Fatal("a re-encoded image does not re-encode to itself")
	}
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
