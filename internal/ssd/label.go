// Package ssd implements the semistructured data model of Buneman's PODS '97
// tutorial: rooted, edge-labeled graphs whose labels are drawn from a tagged
// union of base types and symbols,
//
//	type label = int | float | string | bool | symbol | oid
//	type tree  = set(label × tree)
//
// Cycles are permitted; "tree" is used in the paper's loose sense. The
// package also provides the two model variants the paper formalizes (leaf
// values and node labels) and lossless conversions between them (variant.go),
// plus a concrete text syntax (text.go).
package ssd

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the variants of the Label tagged union.
type Kind uint8

// Label kinds. Symbols are the attribute-like names (Movie, Title); the rest
// are base data types. OIDs model OEM-style object identity: they compare
// equal only to themselves and are otherwise opaque to the query language.
const (
	KindSymbol Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindOID
	numKinds
)

// String returns the lower-case name of the kind as used by the query
// language's type predicates (isint, isstring, ...).
func (k Kind) String() string {
	switch k {
	case KindSymbol:
		return "symbol"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindOID:
		return "oid"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Label is the tagged union of edge-label types, held as an id into the
// process's label table: every label is made through the table, so two
// labels with the same payload share one id, a Label is four bytes and
// holds no pointer, and == and map hashing compare that id. An Edge is
// therefore pointer-free and the collector never scans edge lists. The
// table keeps every label it has made for the life of the process (see
// the table below). The zero value is the symbol "".
//
// Label identity is encoding identity: two labels are == exactly when
// their AppendLabel bytes are equal. Floats are therefore held by their
// bits, so -0 and +0, and NaNs with different payloads, are distinct
// labels; Equal and Compare still compare them numerically.
type Label struct{ id uint32 }

// labelVal is a label's payload: the kind, and a symbol, string or oid in
// s, an int (a bool as 0/1) or a float's IEEE 754 bits in n.
type labelVal struct {
	kind Kind
	s    string
	n    int64
}

// The label table maps ids to payloads and AppendLabel encodings to ids.
// Payloads live in fixed-size chunks that never move, so a reader holding
// an id reaches its payload with two loads and no lock. The encoding index
// is open addressing over slots that hold id+1 (0 is empty); readers probe
// it without a lock, and a writer, under mu, fills a payload before it
// publishes the payload's slot. Entries are never removed: the table grows
// with the distinct labels the process makes — its data's labels, and the
// literals and parameters of its queries — by about 40 bytes plus the
// string bytes per label.
const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
)

type labelTable struct {
	mu     sync.Mutex
	seed   maphash.Seed
	n      uint32                                // entries; guarded by mu
	chunks atomic.Pointer[[]*[chunkLen]labelVal] // replaced, never mutated, when it grows
	slots  atomic.Pointer[[]atomic.Uint32]       // power-of-two length, at most half full
}

// table is initialised with the zero payload, Sym(""), as id 0.
var table = newLabelTable()

func newLabelTable() *labelTable {
	t := &labelTable{seed: maphash.MakeSeed()}
	chunks := []*[chunkLen]labelVal{}
	slots := make([]atomic.Uint32, 64)
	t.chunks.Store(&chunks)
	t.slots.Store(&slots)
	t.add(labelVal{}, t.hash(&labelVal{}))
	return t
}

func (t *labelTable) entry(id uint32) *labelVal {
	return &(*t.chunks.Load())[id>>chunkBits][id&(chunkLen-1)]
}

// hash is the hash of v's encoding.
func (t *labelTable) hash(v *labelVal) uint64 {
	var buf [48]byte
	return maphash.Bytes(t.seed, appendVal(buf[:0], v))
}

// lookup returns the id of the label whose encoding is enc (hash h).
func (t *labelTable) lookup(enc []byte, h uint64) (uint32, bool) {
	slots := *t.slots.Load()
	mask := uint64(len(slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := slots[i].Load()
		if s == 0 {
			return 0, false
		}
		if t.entry(s - 1).encodes(enc) {
			return s - 1, true
		}
	}
}

// encodes reports whether enc is v's encoding.
func (v *labelVal) encodes(enc []byte) bool {
	var buf [16]byte
	switch v.kind {
	case KindSymbol, KindString, KindOID:
		hdr := binary.AppendUvarint(append(buf[:0], byte(v.kind)), uint64(len(v.s)))
		return len(enc) == len(hdr)+len(v.s) && string(enc[:len(hdr)]) == string(hdr) && string(enc[len(hdr):]) == v.s
	}
	return string(appendVal(buf[:0], v)) == string(enc)
}

// intern returns the label of payload v, whose encoding is enc, adding it
// to the table if it is new.
func (t *labelTable) intern(enc []byte, v labelVal) Label {
	h := maphash.Bytes(t.seed, enc)
	if id, ok := t.lookup(enc, h); ok {
		return Label{id}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.lookup(enc, h); ok {
		return Label{id}
	}
	return Label{t.add(v, h)}
}

// add appends v, whose encoding hashes to h, as a new entry and indexes
// it; the caller holds mu (or owns t). v.s is copied, so the table holds
// no caller's bytes.
func (t *labelTable) add(v labelVal, h uint64) uint32 {
	id := t.n
	if id == math.MaxUint32 {
		panic("ssd: label table full")
	}
	chunks := *t.chunks.Load()
	if int(id>>chunkBits) == len(chunks) {
		// Readers may hold the old slice: grow a copy.
		grown := append(chunks[:len(chunks):len(chunks)], new([chunkLen]labelVal))
		t.chunks.Store(&grown)
		chunks = grown
	}
	v.s = strings.Clone(v.s)
	chunks[id>>chunkBits][id&(chunkLen-1)] = v
	t.n++
	slots := *t.slots.Load()
	if 2*int(t.n) > len(slots) {
		slots = make([]atomic.Uint32, 2*len(slots))
		for j := uint32(0); j < t.n; j++ {
			place(slots, t.hash(t.entry(j)), j)
		}
		t.slots.Store(&slots)
	} else {
		place(slots, h, id)
	}
	return id
}

// place stores id's slot in the first free slot of h's probe sequence.
func place(slots []atomic.Uint32, h uint64, id uint32) {
	mask := uint64(len(slots) - 1)
	i := h & mask
	for slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	slots[i].Store(id + 1)
}

// mk returns the label of payload v.
func mk(v labelVal) Label {
	var buf [48]byte
	return table.intern(appendVal(buf[:0], &v), v)
}

// LookupLabel returns the label whose AppendLabel encoding is exactly enc,
// if one has been made. Decoders try it before decoding a label, so bytes
// the table already holds cost a hash and a probe, and no allocation.
func LookupLabel(enc []byte) (Label, bool) {
	id, ok := table.lookup(enc, maphash.Bytes(table.seed, enc))
	return Label{id}, ok
}

// val returns l's payload.
func (l Label) val() *labelVal { return table.entry(l.id) }

func (v labelVal) float() float64 { return math.Float64frombits(uint64(v.n)) }

// Sym returns a symbol label (an attribute/class name such as Movie).
func Sym(s string) Label { return mk(labelVal{kind: KindSymbol, s: s}) }

// Str returns a string data label.
func Str(s string) Label { return mk(labelVal{kind: KindString, s: s}) }

// Int returns an integer data label.
func Int(v int64) Label { return mk(labelVal{kind: KindInt, n: v}) }

// Float returns a floating-point data label.
func Float(v float64) Label {
	return mk(labelVal{kind: KindFloat, n: int64(math.Float64bits(v))})
}

// Bool returns a boolean data label.
func Bool(v bool) Label {
	var n int64
	if v {
		n = 1
	}
	return mk(labelVal{kind: KindBool, n: n})
}

// OID returns an object-identity label. OIDs are only testable for equality.
func OID(id string) Label { return mk(labelVal{kind: KindOID, s: id}) }

// AppendLabel appends l's byte encoding to buf: the kind byte, then a
// uvarint length and the bytes of a symbol, string or oid, a zig-zag varint
// for an int, the 8 little-endian IEEE 754 bytes of a float, or 00/01 for a
// bool. It is the one label encoding: the on-disk formats (snapshots, page
// files, the WAL) write it, and bisimulation signatures are built from it.
func AppendLabel(buf []byte, l Label) []byte { return appendVal(buf, l.val()) }

// appendVal appends the encoding AppendLabel gives the label of payload v.
func appendVal(buf []byte, v *labelVal) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindSymbol, KindString, KindOID:
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		return append(buf, v.s...)
	case KindInt:
		return binary.AppendVarint(buf, v.n)
	case KindFloat:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.n))
	case KindBool:
		return append(buf, byte(v.n))
	}
	return buf
}

// Kind reports which variant of the union the label holds.
func (l Label) Kind() Kind { return l.val().kind }

// IsSymbol reports whether the label is a symbol (attribute name).
func (l Label) IsSymbol() bool { return l.Kind() == KindSymbol }

// IsData reports whether the label carries base data (anything but a symbol
// or an oid).
func (l Label) IsData() bool {
	k := l.Kind()
	return k == KindString || k == KindInt || k == KindFloat || k == KindBool
}

// Symbol returns the symbol payload; ok is false if the label is not a symbol.
func (l Label) Symbol() (s string, ok bool) { v := l.val(); return v.s, v.kind == KindSymbol }

// Text returns the string payload; ok is false if the label is not a string.
func (l Label) Text() (s string, ok bool) { v := l.val(); return v.s, v.kind == KindString }

// IntVal returns the integer payload; ok is false if the label is not an int.
func (l Label) IntVal() (n int64, ok bool) { v := l.val(); return v.n, v.kind == KindInt }

// FloatVal returns the float payload; ok is false if the label is not a float.
func (l Label) FloatVal() (f float64, ok bool) {
	v := l.val()
	if v.kind != KindFloat {
		return 0, false
	}
	return v.float(), true
}

// BoolVal returns the boolean payload; ok is false if the label is not a bool.
func (l Label) BoolVal() (b bool, ok bool) { v := l.val(); return v.n != 0, v.kind == KindBool }

// OIDVal returns the oid payload; ok is false if the label is not an oid.
func (l Label) OIDVal() (id string, ok bool) { v := l.val(); return v.s, v.kind == KindOID }

// Numeric returns the label's value as a float64 if it is an int or float.
func (l Label) Numeric() (float64, bool) {
	v := l.val()
	switch v.kind {
	case KindInt:
		return float64(v.n), true
	case KindFloat:
		return v.float(), true
	}
	return 0, false
}

// Equal reports label equality. Ints and floats compare across kinds when
// numerically equal, exactly (the paper's languages overload comparisons on
// base types); all other cross-kind comparisons are false. Floats compare
// as numbers, so -0 equals +0 and NaN equals nothing, although both pairs
// are distinct labels under ==.
func (l Label) Equal(m Label) bool {
	a, b := l.val(), m.val()
	switch {
	case a.kind == KindFloat && b.kind == KindFloat:
		return a.float() == b.float()
	case a.kind == b.kind:
		return l == m
	}
	return a.isNumeric() && b.isNumeric() && cmpNumeric(a, b) == 0
}

// Compare orders labels: first by kind (symbol < string < int < float < bool
// < oid), then by payload, except that ints and floats compare by exact
// numeric value with each other (NaN below every number). It returns -1,
// 0, or +1, and 0 only for identical labels, -0 and +0, or two NaNs; Less
// breaks those last ties.
func (l Label) Compare(m Label) int {
	if l == m {
		return 0
	}
	a, b := l.val(), m.val()
	if a.isNumeric() && b.isNumeric() {
		if c := cmpNumeric(a, b); c != 0 {
			return c
		}
		// Numerically equal: break ties by kind so an int and a float
		// never tie.
		return cmp.Compare(a.kind, b.kind)
	}
	if c := cmp.Compare(a.kind, b.kind); c != 0 {
		return c
	}
	switch a.kind {
	case KindSymbol, KindString, KindOID:
		return strings.Compare(a.s, b.s)
	case KindBool:
		return cmp.Compare(a.n, b.n)
	}
	return 0
}

func (v labelVal) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// cmpNumeric compares the values of two numeric labels exactly: an int is
// never rounded to a float.
func cmpNumeric(a, b *labelVal) int {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return cmp.Compare(a.n, b.n)
	case a.kind == KindFloat && b.kind == KindFloat:
		return cmp.Compare(a.float(), b.float())
	case a.kind == KindInt:
		return cmpIntFloat(a.n, b.float())
	}
	return -cmpIntFloat(b.n, a.float())
}

// cmpIntFloat compares i with f exactly; NaN orders below every number.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f) || f < -1<<63:
		return 1
	case f >= 1<<63:
		return -1
	}
	t := math.Trunc(f) // in int64 range, so int64(t) is exact
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f) // i == t: f's fraction decides
}

// Less is the sort order of labels: Compare, with the ties Compare leaves
// between distinct labels (-0 and +0, NaNs with different payloads) broken
// by the floats' bits. Only identical labels tie, so a sort by Less does not
// depend on input order.
func (l Label) Less(m Label) bool {
	if c := l.Compare(m); c != 0 || l == m {
		return c < 0
	}
	return l.val().n < m.val().n
}

// String renders the label in the package's text syntax: symbols bare,
// strings quoted, oids as &id, and numerics/booleans as literals.
func (l Label) String() string {
	v := l.val()
	switch v.kind {
	case KindSymbol:
		return v.s
	case KindString:
		return strconv.Quote(v.s)
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return formatFloat(v.float())
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindOID:
		return "&" + v.s
	default:
		return fmt.Sprintf("label(%d)", uint8(v.kind))
	}
}

func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "inf"
	}
	if math.IsInf(f, -1) {
		return "-inf"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// Ensure floats stay lexically distinct from ints so the text syntax
	// round-trips the union tag.
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}
