// Package storage addresses §4's second implementation setting: "one is
// building a data structure to represent semistructured data directly",
// where "disk layout and clustering, together with appropriate indexing, is
// also important" [28]. It provides a compact binary codec for graphs, the
// durable snapshot container, and a real out-of-core page store: fixed-size
// pages of DFS-clustered adjacency records served through a byte-budgeted
// LRU buffer pool (see pagedstore.go), with clustering policies
// (DFS-locality vs. random placement) whose buffer-pool behaviour under
// path scans is experiment E10.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/ssd"
)

// Binary format:
//
//	magic "SSDG" | version u8 | root uvarint | numNodes uvarint
//	per node: degree uvarint, then per edge: label, to uvarint
//	label: kind u8 + payload (uvarint length + bytes, varint, 8-byte float,
//	or 1-byte bool)
//	oid section: count uvarint, then (node uvarint, len+bytes) pairs

const (
	magic   = "SSDG"
	version = 1
)

// Encode serializes a graph.
func Encode(g *ssd.Graph) []byte {
	buf := make([]byte, 0, 16+g.NumEdges()*8)
	buf = append(buf, magic...)
	buf = append(buf, version)
	buf = binary.AppendUvarint(buf, uint64(g.Root()))
	buf = binary.AppendUvarint(buf, uint64(g.NumNodes()))
	for v := 0; v < g.NumNodes(); v++ {
		es := g.Out(ssd.NodeID(v))
		buf = binary.AppendUvarint(buf, uint64(len(es)))
		for _, e := range es {
			buf = ssd.AppendLabel(buf, e.Label)
			buf = binary.AppendUvarint(buf, uint64(e.To))
		}
	}
	// OID section.
	var oids []struct {
		n  ssd.NodeID
		id string
	}
	for v := 0; v < g.NumNodes(); v++ {
		if id, ok := g.OIDOf(ssd.NodeID(v)); ok {
			oids = append(oids, struct {
				n  ssd.NodeID
				id string
			}{ssd.NodeID(v), id})
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(oids)))
	for _, o := range oids {
		buf = binary.AppendUvarint(buf, uint64(o.n))
		buf = binary.AppendUvarint(buf, uint64(len(o.id)))
		buf = append(buf, o.id...)
	}
	return buf
}

// Decode parses a serialized graph.
func Decode(data []byte) (*ssd.Graph, error) {
	r := &reader{data: data}
	if len(data) < 5 || string(data[:4]) != magic {
		return nil, fmt.Errorf("storage: bad magic")
	}
	if data[4] != version {
		return nil, fmt.Errorf("storage: unsupported version %d", data[4])
	}
	r.pos = 5
	root, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("storage: graph must have at least one node")
	}
	if n > uint64(len(data)) { // degree-1 lower bound sanity check
		return nil, fmt.Errorf("storage: implausible node count %d", n)
	}
	g := ssd.NewWithCapacity(int(n))
	if n > 1 {
		g.AddNodes(int(n) - 1)
	}
	for v := uint64(0); v < n; v++ {
		deg, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < deg; i++ {
			l, err := r.label()
			if err != nil {
				return nil, err
			}
			to, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if to >= n {
				return nil, fmt.Errorf("storage: edge target %d out of range", to)
			}
			g.AddEdge(ssd.NodeID(v), l, ssd.NodeID(to))
		}
	}
	nOids, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nOids; i++ {
		node, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		id, err := r.str()
		if err != nil {
			return nil, err
		}
		if node >= n {
			return nil, fmt.Errorf("storage: oid node %d out of range", node)
		}
		g.SetOID(ssd.NodeID(node), id)
	}
	if root >= n {
		return nil, fmt.Errorf("storage: root %d out of range", root)
	}
	g.SetRoot(ssd.NodeID(root))
	return g, nil
}

// WriteFile encodes g to path, atomically (see WriteFileAtomic).
func WriteFile(path string, g *ssd.Graph) error {
	_, err := WriteFileAtomic(path, Encode(g))
	return err
}

// WriteFileAtomic replaces path with the concatenation of parts and reports
// the bytes written. It is the one crash-safe file-replace protocol of the
// on-disk formats: write <path>.tmp, fsync it, rename it over path, fsync
// the directory. A crash at any point leaves either the old file or the
// complete new one at path, never a partial write; a leftover .tmp is never
// read by anyone.
func WriteFileAtomic(path string, parts ...[]byte) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range parts {
		var m int
		m, err = f.Write(p)
		n += int64(m)
		if err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		// Directory fsync is advisory on some platforms; best-effort.
		d.Sync()
		d.Close()
	}
	return n, nil
}

// ReadFile decodes a graph from path.
func ReadFile(path string) (*ssd.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// ReadLabel decodes one ssd.AppendLabel-encoded label starting at data[pos],
// returning the label and the position just past it.
func ReadLabel(data []byte, pos int) (ssd.Label, int, error) {
	r := &reader{data: data, pos: pos}
	l, err := r.label()
	return l, r.pos, err
}

// ReadUvarint decodes one uvarint at data[pos], returning the value and the
// position just past it. Exported, with ReadString, so other on-disk
// formats (the mutation WAL) share this codec's bounds-checked readers.
func ReadUvarint(data []byte, pos int) (uint64, int, error) {
	r := &reader{data: data, pos: pos}
	v, err := r.uvarint()
	return v, r.pos, err
}

// ReadString decodes one length-prefixed string at data[pos], returning the
// string and the position just past it.
func ReadString(data []byte, pos int) (string, int, error) {
	r := &reader{data: data, pos: pos}
	s, err := r.str()
	return s, r.pos, err
}

type reader struct {
	data []byte
	pos  int
}

// errNonMinimal rejects a varint written in more bytes than its value
// needs. The writers only produce minimal ones, so refusing the rest gives
// each value exactly one encoding: equal values have equal bytes.
var errNonMinimal = errors.New("storage: non-minimal varint")

// errBoolByte rejects a bool label whose payload byte is neither 0 nor 1,
// for the same reason: ssd.AppendLabel writes only those two.
var errBoolByte = errors.New("storage: bool label byte is neither 0 nor 1")

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if err := r.skipVarint(n); err != nil {
		return 0, err
	}
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if err := r.skipVarint(n); err != nil {
		return 0, err
	}
	return v, nil
}

// skipVarint steps over the n-byte varint binary.Uvarint or binary.Varint
// decoded at r.pos (n <= 0: cut short or overflowing). A minimal encoding
// of more than one byte never ends in a zero byte.
func (r *reader) skipVarint(n int) error {
	if n <= 0 {
		return io.ErrUnexpectedEOF
	}
	if n > 1 && r.data[r.pos+n-1] == 0 {
		return errNonMinimal
	}
	r.pos += n
	return nil
}

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	// Compare in uint64: a corrupt length can exceed int range, and
	// converting first would wrap negative and pass the check.
	if n > uint64(len(r.data)-r.pos) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// label reads one label. Bytes the label table already holds are looked
// up rather than decoded, so reading a known label allocates nothing.
func (r *reader) label() (ssd.Label, error) {
	start := r.pos
	if err := r.skipLabel(); err != nil {
		return ssd.Label{}, err
	}
	if l, ok := ssd.LookupLabel(r.data[start:r.pos]); ok {
		return l, nil
	}
	r.pos = start
	return r.decodeLabel()
}

// decodeLabel builds the label at r.pos from its payload.
func (r *reader) decodeLabel() (ssd.Label, error) {
	if r.pos >= len(r.data) {
		return ssd.Label{}, io.ErrUnexpectedEOF
	}
	kind := ssd.Kind(r.data[r.pos])
	r.pos++
	switch kind {
	case ssd.KindSymbol:
		s, err := r.str()
		return ssd.Sym(s), err
	case ssd.KindString:
		s, err := r.str()
		return ssd.Str(s), err
	case ssd.KindOID:
		s, err := r.str()
		return ssd.OID(s), err
	case ssd.KindInt:
		v, err := r.varint()
		return ssd.Int(v), err
	case ssd.KindFloat:
		if r.pos+8 > len(r.data) {
			return ssd.Label{}, io.ErrUnexpectedEOF
		}
		bits := binary.LittleEndian.Uint64(r.data[r.pos:])
		r.pos += 8
		return ssd.Float(math.Float64frombits(bits)), nil
	case ssd.KindBool:
		if r.pos >= len(r.data) {
			return ssd.Label{}, io.ErrUnexpectedEOF
		}
		b := r.data[r.pos]
		if b > 1 {
			return ssd.Label{}, errBoolByte
		}
		r.pos++
		return ssd.Bool(b == 1), nil
	default:
		return ssd.Label{}, fmt.Errorf("storage: unknown label kind %d", kind)
	}
}

// skipLabel steps over one label, making every check decodeLabel makes —
// kind, string length, varint and fixed-width payload bounds — without
// building the label, so validating a record allocates nothing.
func (r *reader) skipLabel() error {
	if r.pos >= len(r.data) {
		return io.ErrUnexpectedEOF
	}
	kind := ssd.Kind(r.data[r.pos])
	r.pos++
	switch kind {
	case ssd.KindSymbol, ssd.KindString, ssd.KindOID:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.data)-r.pos) {
			return io.ErrUnexpectedEOF
		}
		r.pos += int(n)
	case ssd.KindInt:
		_, err := r.varint()
		return err
	case ssd.KindFloat:
		if r.pos+8 > len(r.data) {
			return io.ErrUnexpectedEOF
		}
		r.pos += 8
	case ssd.KindBool:
		if r.pos >= len(r.data) {
			return io.ErrUnexpectedEOF
		}
		if r.data[r.pos] > 1 {
			return errBoolByte
		}
		r.pos++
	default:
		return fmt.Errorf("storage: unknown label kind %d", kind)
	}
	return nil
}
