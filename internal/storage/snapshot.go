package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/index"
	"repro/internal/ssd"
	"repro/internal/stats"
)

// This file is the durable snapshot codec: one self-describing binary file
// holding a graph version and its position in the write-ahead log. The
// label index and statistics the serving path reads are derived from the
// graph, so a generation does not carry them: whoever opens it builds them
// from the decoded graph, and no persisted copy can disagree with it. The
// layout is a sequence of CRC-framed sections:
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
//	labels (3)  a label index        } written by older builds; still
//	values (4)  a value index        } framed and checked like any other
//	guide  (5)  a DataGuide          } section, but their payloads are
//	stats  (6)  planner statistics   } never parsed (stats: version ≥ 2)
//
// The writer emits meta, graph and the end marker. Every payload is covered
// by its own CRC and the file ends with an explicit end marker, so a torn
// write is detected wherever it lands (a truncated section, a corrupt
// payload, or a missing tail) and the reader can fall back to an older
// snapshot.
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
	// snapVersion is the version written. Every older version remains
	// readable, so upgrading never invalidates an existing snapshot
	// generation: version 1 files (no stats section), version 2 and 3 files
	// (stats with per-node refcounts) and version 4 files (labels keyed by
	// value) differ from version 5 only in sections the reader skips.
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
	Graph *ssd.Graph

	// Labels, Values and Stats are neither written nor read by the codec.
	// They remain because the benchmark's trace replay still fills them in
	// (ROADMAP item 1(c′) moves it off them and deletes the fields).
	Labels *index.LabelIndex
	Values *index.ValueIndex
	Stats  *stats.Stats

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

// EncodeSnapshot serializes s as meta, graph and the end marker, computing
// and filling in s.SelfFP.
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
	return appendSection(buf, secEnd, nil)
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
		if s.CommitSeq, metaPos, err = ReadUvarint(meta, metaPos); err != nil {
			return nil, fmt.Errorf("storage: snapshot meta: %w", err)
		}
	}
	if metaPos != len(meta) {
		return nil, fmt.Errorf("storage: %d trailing bytes in snapshot meta", len(meta)-metaPos)
	}
	if fp := crc32.ChecksumIEEE(graphPayload); fp != s.SelfFP {
		// The sections are individually intact but do not belong together
		// (e.g. a graph section spliced from another file).
		return nil, fmt.Errorf("storage: snapshot fingerprint mismatch: meta %08x, graph %08x", s.SelfFP, fp)
	}
	if s.Graph, err = Decode(graphPayload); err != nil {
		return nil, err
	}
	return s, nil
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
