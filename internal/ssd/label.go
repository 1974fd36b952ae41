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
	"math"
	"strconv"
	"strings"
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

// Label is the tagged union of edge-label types. The zero value is the
// symbol "". Labels are comparable and can be used as map keys.
type Label struct {
	kind Kind
	s    string // symbol, string, or oid payload
	n    int64  // int payload; bool stored as 0/1
	f    float64
}

// Sym returns a symbol label (an attribute/class name such as Movie).
func Sym(s string) Label { return Label{kind: KindSymbol, s: s} }

// Str returns a string data label.
func Str(s string) Label { return Label{kind: KindString, s: s} }

// Int returns an integer data label.
func Int(v int64) Label { return Label{kind: KindInt, n: v} }

// Float returns a floating-point data label.
func Float(v float64) Label { return Label{kind: KindFloat, f: v} }

// Bool returns a boolean data label.
func Bool(v bool) Label {
	var n int64
	if v {
		n = 1
	}
	return Label{kind: KindBool, n: n}
}

// OID returns an object-identity label. OIDs are only testable for equality.
func OID(id string) Label { return Label{kind: KindOID, s: id} }

// AppendLabel appends l's byte encoding to buf: the kind byte, then a
// uvarint length and the bytes of a symbol, string or oid, a zig-zag varint
// for an int, the 8 little-endian IEEE 754 bytes of a float, or 00/01 for a
// bool. It is the one label encoding: the on-disk formats (snapshots, page
// files, the WAL) write it, and bisimulation signatures are built from it.
func AppendLabel(buf []byte, l Label) []byte {
	buf = append(buf, byte(l.kind))
	switch l.kind {
	case KindSymbol, KindString, KindOID:
		buf = binary.AppendUvarint(buf, uint64(len(l.s)))
		return append(buf, l.s...)
	case KindInt:
		return binary.AppendVarint(buf, l.n)
	case KindFloat:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(l.f))
	case KindBool:
		return append(buf, byte(l.n))
	}
	return buf
}

// Kind reports which variant of the union the label holds.
func (l Label) Kind() Kind { return l.kind }

// IsSymbol reports whether the label is a symbol (attribute name).
func (l Label) IsSymbol() bool { return l.kind == KindSymbol }

// IsData reports whether the label carries base data (anything but a symbol
// or an oid).
func (l Label) IsData() bool {
	return l.kind == KindString || l.kind == KindInt || l.kind == KindFloat || l.kind == KindBool
}

// Symbol returns the symbol payload; ok is false if the label is not a symbol.
func (l Label) Symbol() (s string, ok bool) { return l.s, l.kind == KindSymbol }

// Text returns the string payload; ok is false if the label is not a string.
func (l Label) Text() (s string, ok bool) { return l.s, l.kind == KindString }

// IntVal returns the integer payload; ok is false if the label is not an int.
func (l Label) IntVal() (v int64, ok bool) { return l.n, l.kind == KindInt }

// FloatVal returns the float payload; ok is false if the label is not a float.
func (l Label) FloatVal() (v float64, ok bool) { return l.f, l.kind == KindFloat }

// BoolVal returns the boolean payload; ok is false if the label is not a bool.
func (l Label) BoolVal() (v bool, ok bool) { return l.n != 0, l.kind == KindBool }

// OIDVal returns the oid payload; ok is false if the label is not an oid.
func (l Label) OIDVal() (id string, ok bool) { return l.s, l.kind == KindOID }

// Numeric returns the label's value as a float64 if it is an int or float.
func (l Label) Numeric() (float64, bool) {
	switch l.kind {
	case KindInt:
		return float64(l.n), true
	case KindFloat:
		return l.f, true
	}
	return 0, false
}

// Equal reports label equality. Ints and floats compare across kinds when
// numerically equal, exactly (the paper's languages overload comparisons on
// base types); all other cross-kind comparisons are false.
func (l Label) Equal(m Label) bool {
	if l.kind == m.kind {
		return l == m
	}
	return l.isNumeric() && m.isNumeric() && cmpNumeric(l, m) == 0
}

// Compare orders labels: first by kind (symbol < string < int < float < bool
// < oid), then by payload, except that ints and floats compare by exact
// numeric value with each other (NaN below every number). It is a total
// order and returns -1, 0, or +1.
func (l Label) Compare(m Label) int {
	if l.isNumeric() && m.isNumeric() {
		if c := cmpNumeric(l, m); c != 0 {
			return c
		}
		// Numerically equal: break ties by kind so Compare is a total order
		// consistent with map-key identity.
		return cmp.Compare(l.kind, m.kind)
	}
	if c := cmp.Compare(l.kind, m.kind); c != 0 {
		return c
	}
	switch l.kind {
	case KindSymbol, KindString, KindOID:
		return strings.Compare(l.s, m.s)
	case KindBool:
		return cmp.Compare(l.n, m.n)
	}
	return 0
}

func (l Label) isNumeric() bool { return l.kind == KindInt || l.kind == KindFloat }

// cmpNumeric compares the values of two numeric labels exactly: an int is
// never rounded to a float.
func cmpNumeric(l, m Label) int {
	switch {
	case l.kind == KindInt && m.kind == KindInt:
		return cmp.Compare(l.n, m.n)
	case l.kind == KindFloat && m.kind == KindFloat:
		return cmp.Compare(l.f, m.f)
	case l.kind == KindInt:
		return cmpIntFloat(l.n, m.f)
	}
	return -cmpIntFloat(m.n, l.f)
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

// Less reports whether l orders strictly before m under Compare.
func (l Label) Less(m Label) bool { return l.Compare(m) < 0 }

// String renders the label in the package's text syntax: symbols bare,
// strings quoted, oids as &id, and numerics/booleans as literals.
func (l Label) String() string {
	switch l.kind {
	case KindSymbol:
		return l.s
	case KindString:
		return strconv.Quote(l.s)
	case KindInt:
		return strconv.FormatInt(l.n, 10)
	case KindFloat:
		return formatFloat(l.f)
	case KindBool:
		if l.n != 0 {
			return "true"
		}
		return "false"
	case KindOID:
		return "&" + l.s
	default:
		return fmt.Sprintf("label(%d)", uint8(l.kind))
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
