package mutate

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/ssd"
	"repro/internal/storage"
)

// Batch wire format, following internal/storage's codec conventions
// (uvarints for counts and node ids, storage's label encoding):
//
//	baseNodes uvarint | count uvarint
//	per record: op u8, then
//	  AddNode               (nothing)
//	  AddEdge, DeleteEdge   from uvarint, label, to uvarint
//	  Relabel               from uvarint, old label, new label
//	  SetOID                node uvarint, len uvarint + bytes
//	  SetRoot               node uvarint

// EncodeBatch serializes a batch.
func EncodeBatch(b *Batch) []byte {
	buf := make([]byte, 0, 16+len(b.recs)*8)
	buf = binary.AppendUvarint(buf, uint64(b.baseNodes))
	buf = binary.AppendUvarint(buf, uint64(len(b.recs)))
	for _, r := range b.recs {
		buf = append(buf, byte(r.Op))
		switch r.Op {
		case OpAddNode:
		case OpAddEdge, OpDeleteEdge:
			buf = binary.AppendUvarint(buf, uint64(r.From))
			buf = ssd.AppendLabel(buf, r.Label)
			buf = binary.AppendUvarint(buf, uint64(r.To))
		case OpRelabel:
			buf = binary.AppendUvarint(buf, uint64(r.From))
			buf = ssd.AppendLabel(buf, r.Old)
			buf = ssd.AppendLabel(buf, r.Label)
		case OpSetOID:
			buf = binary.AppendUvarint(buf, uint64(r.From))
			buf = binary.AppendUvarint(buf, uint64(len(r.OID)))
			buf = append(buf, r.OID...)
		case OpSetRoot:
			buf = binary.AppendUvarint(buf, uint64(r.From))
		}
	}
	return buf
}

// DecodeBatch parses a serialized batch. The decoded batch re-derives its
// AddNode allocation counter, so it applies exactly like the original.
func DecodeBatch(data []byte) (*Batch, error) {
	d := &decoder{data: data}
	baseNodes := d.uvarint()
	count := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if count > uint64(len(data)) { // one byte per record minimum
		return nil, fmt.Errorf("mutate: implausible record count %d", count)
	}
	b := newBatchSized(int(baseNodes))
	for i := uint64(0); i < count; i++ {
		op := Op(d.byte())
		if d.err != nil {
			return nil, d.err
		}
		r := Rec{Op: op}
		switch op {
		case OpAddNode:
			b.added++
		case OpAddEdge, OpDeleteEdge:
			r.From = d.node()
			r.Label = d.label()
			r.To = d.node()
		case OpRelabel:
			r.From = d.node()
			r.Old = d.label()
			r.Label = d.label()
		case OpSetOID:
			r.From = d.node()
			r.OID = d.str()
		case OpSetRoot:
			r.From = d.node()
		default:
			return nil, fmt.Errorf("mutate: unknown op %d at record %d", op, i)
		}
		if d.err != nil {
			return nil, d.err
		}
		b.recs = append(b.recs, r)
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("mutate: %d trailing bytes after batch", len(data)-d.pos)
	}
	return b, nil
}

type decoder struct {
	data []byte
	pos  int
	err  error
}

// decoder is a thin error-latching wrapper around internal/storage's
// bounds-checked primitive readers, so both on-disk formats share one
// decode implementation.
func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	c := d.data[d.pos]
	d.pos++
	return c
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, pos, err := storage.ReadUvarint(d.data, d.pos)
	if err != nil {
		d.err = err
		return 0
	}
	d.pos = pos
	return v
}

// node reads a node id. Ids are int32 in memory, so a wider value would
// wrap onto another node (2^32 onto node 0) and re-encode differently;
// it is refused instead.
func (d *decoder) node() ssd.NodeID {
	v := d.uvarint()
	if v > math.MaxInt32 && d.err == nil {
		d.err = fmt.Errorf("mutate: node id %d out of range", v)
		return 0
	}
	return ssd.NodeID(v)
}

func (d *decoder) label() ssd.Label {
	if d.err != nil {
		return ssd.Label{}
	}
	l, pos, err := storage.ReadLabel(d.data, d.pos)
	if err == nil {
		err = checkLabel(l)
	}
	if err != nil {
		d.err = err
		return ssd.Label{}
	}
	d.pos = pos
	return l
}

func (d *decoder) str() string {
	if d.err != nil {
		return ""
	}
	s, pos, err := storage.ReadString(d.data, d.pos)
	if err != nil {
		d.err = err
		return ""
	}
	d.pos = pos
	return s
}
