package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/ssd"
	"repro/internal/stats"
)

// This file is the durable snapshot codec: one self-describing binary file
// holding a graph version together with the derived structures built for it
// (label index, value index, DataGuide), so recovery restores a queryable
// snapshot without rescanning the graph. The layout is a sequence of
// CRC-framed sections:
//
//	magic "SSDS" | version u8
//	section*     kind u8 | payloadLen uvarint | crc32(payload) u32 LE | payload
//	end section  kind 0xFF, empty payload
//
// Section kinds:
//
//	meta   (1)  selfFP u32 LE | walBaseFP u32 LE | applied uvarint
//	            | commitSeq uvarint (optional trailing field; absent in
//	              files written before replication, decoding as 0)
//	graph  (2)  the SSDG graph encoding (Encode)
//	labels (3)  nLabels uvarint; per label: label, nRefs uvarint, (from, to uvarint)*
//	values (4)  nEntries uvarint; per entry: label, from uvarint, to uvarint
//	guide  (5)  guideLen uvarint + SSDG guide graph | per guide node: extLen uvarint, node uvarint*
//	stats  (6)  edges uvarint | histogram bucket uvarint* | nLabels uvarint;
//	            per label: label, count uvarint, sources uvarint
//	            (version ≥ 2 only. Versions 2 and 3 stored, instead of
//	            sources, the source refcount list nSrcs + (node, refs
//	            uvarint)*, and version 2 followed it with a destination list
//	            of the same shape; the reader checks the lists and keeps only
//	            the source list's length)
//
// meta and graph are mandatory; the index, guide, and stats sections are
// written only when the snapshot had built them. Every payload is covered by its
// own CRC and the file ends with an explicit end marker, so a torn write is
// detected wherever it lands (a truncated section, a corrupt payload, or a
// missing tail) and the reader can fall back to an older snapshot.
//
// Fingerprint binding: selfFP is crc32 of the graph section payload —
// exactly the WAL binding fingerprint (mutate.Fingerprint) of the decoded
// graph — so a snapshot names the log that extends it. walBaseFP and
// applied record the snapshot's position in the log it was checkpointed
// from: the log bound to walBaseFP has its first `applied` batches already
// folded into this graph. Recovery uses the pair to replay only the tail
// when a crash interrupted the checkpoint between snapshot publish and log
// truncation (see internal/core's OpenPath).

const (
	snapMagic = "SSDS"
	// snapVersion is the version written; version 1 files (no stats
	// section), version 2 and 3 files (stats with per-node refcounts) and
	// version 4 files (labels keyed by value, so -0 and +0 shared an entry)
	// remain readable, so upgrading never invalidates an existing snapshot
	// generation. Versions before 5 have their label index and statistics
	// rebuilt from the graph at decode, and their guide dropped.
	snapVersion    = 5
	snapVersionMin = 1
)

const (
	secMeta   = 1
	secGraph  = 2
	secLabels = 3
	secValues = 4
	secGuide  = 5
	secStats  = 6
	secEnd    = 0xFF
)

// maxSectionKind returns the highest section kind defined by a format
// version. The section set is closed per version: a kind above this is a
// corrupt kind byte, not a future extension (those bump the version).
func maxSectionKind(version byte) byte {
	if version >= 2 {
		return secStats
	}
	return secGuide
}

// Snapshot is the in-memory form of one durable snapshot file.
type Snapshot struct {
	Graph  *ssd.Graph
	Labels *index.LabelIndex // nil if not persisted
	Values *index.ValueIndex // nil if not persisted
	Guide  *dataguide.Guide  // nil if not persisted
	Stats  *stats.Stats      // nil if not persisted

	// SelfFP is the WAL binding fingerprint of Graph (crc32 of its SSDG
	// encoding). Set by EncodeSnapshot and DecodeSnapshot.
	SelfFP uint32
	// WALBaseFP is the binding fingerprint of the log this snapshot was
	// checkpointed from; Applied is how many of that log's batches are
	// already folded into Graph.
	WALBaseFP uint32
	Applied   uint64

	// CommitSeq is the global replication position folded into Graph: the
	// total number of batches committed since the durable directory's
	// birth. It is the meaning of an X-SSD-Seq token and the base a
	// follower resumes streaming from. Encoded as a trailing optional meta
	// field, so snapshots written before replication decode with 0.
	CommitSeq uint64
}

func appendSection(buf []byte, kind byte, payload []byte) []byte {
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// EncodeSnapshot serializes s, computing and filling in s.SelfFP.
func EncodeSnapshot(s *Snapshot) []byte {
	graphPayload := Encode(s.Graph)
	s.SelfFP = crc32.ChecksumIEEE(graphPayload)

	meta := binary.LittleEndian.AppendUint32(nil, s.SelfFP)
	meta = binary.LittleEndian.AppendUint32(meta, s.WALBaseFP)
	meta = binary.AppendUvarint(meta, s.Applied)
	meta = binary.AppendUvarint(meta, s.CommitSeq)

	buf := append([]byte(snapMagic), snapVersion)
	buf = appendSection(buf, secMeta, meta)
	buf = appendSection(buf, secGraph, graphPayload)
	if s.Labels != nil {
		buf = appendSection(buf, secLabels, encodeLabelIndex(s.Labels))
	}
	if s.Values != nil {
		buf = appendSection(buf, secValues, encodeValueIndex(s.Values))
	}
	if s.Guide != nil {
		buf = appendSection(buf, secGuide, encodeGuide(s.Guide))
	}
	if s.Stats != nil {
		buf = appendSection(buf, secStats, encodeStats(s.Stats))
	}
	return appendSection(buf, secEnd, nil)
}

func encodeLabelIndex(ix *index.LabelIndex) []byte {
	ps := ix.Dump()
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	for _, p := range ps {
		buf = ssd.AppendLabel(buf, p.Label)
		buf = binary.AppendUvarint(buf, uint64(len(p.Refs)))
		for _, r := range p.Refs {
			buf = binary.AppendUvarint(buf, uint64(r.From))
			buf = binary.AppendUvarint(buf, uint64(r.To))
		}
	}
	return buf
}

func encodeValueIndex(ix *index.ValueIndex) []byte {
	es := ix.Dump()
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = ssd.AppendLabel(buf, e.Label)
		buf = binary.AppendUvarint(buf, uint64(e.Ref.From))
		buf = binary.AppendUvarint(buf, uint64(e.Ref.To))
	}
	return buf
}

func encodeStats(st *stats.Stats) []byte {
	d := st.Dump()
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(d.Edges))
	for _, c := range d.Hist {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Labels)))
	for _, lc := range d.Labels {
		buf = ssd.AppendLabel(buf, lc.Label)
		buf = binary.AppendUvarint(buf, uint64(lc.Count))
		buf = binary.AppendUvarint(buf, uint64(lc.Sources))
	}
	return buf
}

func encodeGuide(g *dataguide.Guide) []byte {
	gg := Encode(g.G)
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(gg)))
	buf = append(buf, gg...)
	for _, ext := range g.Extent {
		buf = binary.AppendUvarint(buf, uint64(len(ext)))
		for _, v := range ext {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return buf
}

// DecodeSnapshot parses a snapshot file image. Any framing damage — bad
// magic, a truncated or CRC-corrupt section, a missing end marker, trailing
// bytes — is an error: the caller treats the file as an invalid snapshot
// generation and falls back to an older one.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < 5 || string(data[:4]) != snapMagic {
		return nil, fmt.Errorf("storage: bad snapshot magic")
	}
	version := data[4]
	if version < snapVersionMin || version > snapVersion {
		return nil, fmt.Errorf("storage: unsupported snapshot version %d", version)
	}
	maxKind := maxSectionKind(version)
	pos := 5
	sections := make(map[byte][]byte)
	ended := false
	for pos < len(data) {
		kind := data[pos]
		pos++
		n, next, err := ReadUvarint(data, pos)
		if err == errNonMinimal {
			return nil, fmt.Errorf("storage: snapshot section %d: %w", kind, err)
		}
		if err != nil || n > uint64(len(data)) || next+4+int(n) > len(data) {
			return nil, fmt.Errorf("storage: truncated snapshot section %d", kind)
		}
		pos = next
		sum := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		payload := data[pos : pos+int(n)]
		pos += int(n)
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("storage: snapshot section %d fails CRC", kind)
		}
		if kind == secEnd {
			ended = true
			break
		}
		if kind < secMeta || kind > maxKind {
			// Within one format version the section set is closed; an unknown
			// kind is a corrupt kind byte, not a future extension (those bump
			// the version).
			return nil, fmt.Errorf("storage: unknown snapshot section %d", kind)
		}
		if _, dup := sections[kind]; dup {
			return nil, fmt.Errorf("storage: duplicate snapshot section %d", kind)
		}
		sections[kind] = payload
	}
	if !ended {
		return nil, fmt.Errorf("storage: snapshot missing end marker")
	}
	if pos != len(data) {
		return nil, fmt.Errorf("storage: %d trailing bytes after snapshot", len(data)-pos)
	}
	meta, ok := sections[secMeta]
	if !ok {
		return nil, fmt.Errorf("storage: snapshot missing meta section")
	}
	graphPayload, ok := sections[secGraph]
	if !ok {
		return nil, fmt.Errorf("storage: snapshot missing graph section")
	}

	s := &Snapshot{}
	if len(meta) < 8 {
		return nil, fmt.Errorf("storage: short snapshot meta")
	}
	s.SelfFP = binary.LittleEndian.Uint32(meta)
	s.WALBaseFP = binary.LittleEndian.Uint32(meta[4:])
	applied, metaPos, err := ReadUvarint(meta, 8)
	if err != nil {
		return nil, fmt.Errorf("storage: snapshot meta: %w", err)
	}
	s.Applied = applied
	if metaPos < len(meta) {
		// Optional trailing field (replication position); files written
		// before it exist simply end here and decode as CommitSeq 0.
		if s.CommitSeq, _, err = ReadUvarint(meta, metaPos); err != nil {
			return nil, fmt.Errorf("storage: snapshot meta: %w", err)
		}
	}
	if fp := crc32.ChecksumIEEE(graphPayload); fp != s.SelfFP {
		// The sections are individually intact but do not belong together
		// (e.g. a graph section spliced from another file).
		return nil, fmt.Errorf("storage: snapshot fingerprint mismatch: meta %08x, graph %08x", s.SelfFP, fp)
	}
	if s.Graph, err = Decode(graphPayload); err != nil {
		return nil, err
	}
	if p, ok := sections[secLabels]; ok {
		if s.Labels, err = decodeLabelIndex(p, s.Graph.NumNodes()); err != nil {
			return nil, err
		}
	}
	if p, ok := sections[secValues]; ok {
		if s.Values, err = decodeValueIndex(p, s.Graph.NumNodes()); err != nil {
			return nil, err
		}
	}
	if p, ok := sections[secGuide]; ok {
		if s.Guide, err = decodeGuide(p, s.Graph); err != nil {
			return nil, err
		}
	}
	if p, ok := sections[secStats]; ok {
		if s.Stats, err = decodeStats(p, s.Graph.NumNodes(), version); err != nil {
			return nil, err
		}
	}
	if version < 5 {
		// Written while -0 and +0 were one label (and each NaN edge its
		// own): a posting, statistics entry or guide child may cover edges
		// that are distinct labels now. The sections were checked above;
		// rebuild what the file carried from its graph, and leave the
		// guide to be rebuilt on demand.
		if s.Labels != nil {
			s.Labels = index.BuildLabelIndex(s.Graph)
		}
		if s.Stats != nil {
			s.Stats = stats.Build(s.Graph)
		}
		s.Guide = nil
	}
	return s, nil
}

func decodeStats(data []byte, numNodes int, version byte) (*stats.Stats, error) {
	var d stats.Dump
	edges, pos, err := ReadUvarint(data, 0)
	if err != nil {
		return nil, err
	}
	d.Edges = int(edges)
	for i := range d.Hist {
		var c uint64
		if c, pos, err = ReadUvarint(data, pos); err != nil {
			return nil, err
		}
		d.Hist[i] = int64(c)
	}
	nLabels, pos, err := ReadUvarint(data, pos)
	if err != nil {
		return nil, err
	}
	if nLabels > uint64(len(data)) {
		return nil, fmt.Errorf("storage: implausible stats label count %d", nLabels)
	}
	// readCounts checks one version 2/3 refcount list — nodes ascending and
	// in range, refcounts positive — and returns its length and refcount
	// sum, or an error once the sum exceeds limit.
	readCounts := func(limit uint64) (n, sum uint64, err error) {
		if n, pos, err = ReadUvarint(data, pos); err != nil {
			return 0, 0, err
		}
		if n > uint64(len(data)) {
			return 0, 0, fmt.Errorf("storage: implausible stats refcount list size %d", n)
		}
		var prev uint64
		for i := uint64(0); i < n; i++ {
			var node, refs uint64
			if node, pos, err = ReadUvarint(data, pos); err != nil {
				return 0, 0, err
			}
			if refs, pos, err = ReadUvarint(data, pos); err != nil {
				return 0, 0, err
			}
			switch {
			case node >= uint64(numNodes):
				return 0, 0, fmt.Errorf("storage: stats node %d out of range", node)
			case i > 0 && node <= prev:
				return 0, 0, fmt.Errorf("storage: stats refcounts out of order at node %d", node)
			case refs == 0:
				return 0, 0, fmt.Errorf("storage: zero stats refcount at node %d", node)
			case refs > limit-sum:
				return 0, 0, fmt.Errorf("storage: stats refcounts exceed %d", limit)
			}
			prev, sum = node, sum+refs
		}
		return n, sum, nil
	}
	d.Labels = make([]stats.LabelCard, 0, nLabels)
	for i := uint64(0); i < nLabels; i++ {
		var lc stats.LabelCard
		if lc.Label, pos, err = ReadLabel(data, pos); err != nil {
			return nil, err
		}
		var count, sources uint64
		if count, pos, err = ReadUvarint(data, pos); err != nil {
			return nil, err
		}
		if version >= 4 {
			if sources, pos, err = ReadUvarint(data, pos); err != nil {
				return nil, err
			}
		} else {
			// Versions 2 and 3 stored one refcount per source node: the
			// list's length is the distinct-source count.
			var sum uint64
			if sources, sum, err = readCounts(count); err != nil {
				return nil, err
			}
			if sum != count {
				return nil, fmt.Errorf("storage: stats label %v: refcount sum %d != count %d", lc.Label, sum, count)
			}
		}
		if version == 2 {
			// Version 2 also stored destination refcounts, which nothing
			// reads any more: check them and drop them.
			if _, _, err = readCounts(count); err != nil {
				return nil, err
			}
		}
		lc.Count, lc.Sources = int(count), int(sources)
		d.Labels = append(d.Labels, lc)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("storage: trailing bytes in stats section")
	}
	return stats.FromDump(d)
}

func decodeRef(data []byte, pos, numNodes int) (index.EdgeRef, int, error) {
	from, pos, err := ReadUvarint(data, pos)
	if err != nil {
		return index.EdgeRef{}, pos, err
	}
	to, pos, err := ReadUvarint(data, pos)
	if err != nil {
		return index.EdgeRef{}, pos, err
	}
	if from >= uint64(numNodes) || to >= uint64(numNodes) {
		return index.EdgeRef{}, pos, fmt.Errorf("storage: index ref %d->%d out of range", from, to)
	}
	return index.EdgeRef{From: ssd.NodeID(from), To: ssd.NodeID(to)}, pos, nil
}

func decodeLabelIndex(data []byte, numNodes int) (*index.LabelIndex, error) {
	n, pos, err := ReadUvarint(data, 0)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("storage: implausible label index size %d", n)
	}
	ps := make([]index.Posting, 0, n)
	for i := uint64(0); i < n; i++ {
		var p index.Posting
		if p.Label, pos, err = ReadLabel(data, pos); err != nil {
			return nil, err
		}
		var nr uint64
		if nr, pos, err = ReadUvarint(data, pos); err != nil {
			return nil, err
		}
		if nr > uint64(len(data)) {
			return nil, fmt.Errorf("storage: implausible posting list size %d", nr)
		}
		p.Refs = make([]index.EdgeRef, 0, nr)
		for j := uint64(0); j < nr; j++ {
			var r index.EdgeRef
			if r, pos, err = decodeRef(data, pos, numNodes); err != nil {
				return nil, err
			}
			p.Refs = append(p.Refs, r)
		}
		ps = append(ps, p)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("storage: trailing bytes in label index section")
	}
	return index.LabelIndexFromDump(ps)
}

func decodeValueIndex(data []byte, numNodes int) (*index.ValueIndex, error) {
	n, pos, err := ReadUvarint(data, 0)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("storage: implausible value index size %d", n)
	}
	es := make([]index.Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e index.Entry
		if e.Label, pos, err = ReadLabel(data, pos); err != nil {
			return nil, err
		}
		if e.Ref, pos, err = decodeRef(data, pos, numNodes); err != nil {
			return nil, err
		}
		es = append(es, e)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("storage: trailing bytes in value index section")
	}
	return index.ValueIndexFromDump(es)
}

func decodeGuide(data []byte, source *ssd.Graph) (*dataguide.Guide, error) {
	glen, pos, err := ReadUvarint(data, 0)
	if err != nil {
		return nil, err
	}
	if glen > uint64(len(data)-pos) {
		return nil, fmt.Errorf("storage: truncated guide graph")
	}
	gg, err := Decode(data[pos : pos+int(glen)])
	if err != nil {
		return nil, err
	}
	pos += int(glen)
	extents := make([][]ssd.NodeID, gg.NumNodes())
	for gn := range extents {
		var n uint64
		if n, pos, err = ReadUvarint(data, pos); err != nil {
			return nil, err
		}
		if n > uint64(len(data)) {
			return nil, fmt.Errorf("storage: implausible extent size %d", n)
		}
		ext := make([]ssd.NodeID, 0, n)
		for i := uint64(0); i < n; i++ {
			var v uint64
			if v, pos, err = ReadUvarint(data, pos); err != nil {
				return nil, err
			}
			ext = append(ext, ssd.NodeID(v))
		}
		extents[gn] = ext
	}
	if pos != len(data) {
		return nil, fmt.Errorf("storage: trailing bytes in guide section")
	}
	return dataguide.Restore(gg, extents, source)
}

// WriteSnapshotFile encodes s and writes it to path atomically (see
// WriteFileAtomic), reporting the file size.
func WriteSnapshotFile(path string, s *Snapshot) (int64, error) {
	return WriteFileAtomic(path, EncodeSnapshot(s))
}

// ReadSnapshotFile reads and decodes one snapshot file.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}
