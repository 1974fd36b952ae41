package ssd_test

import (
	"bytes"
	"cmp"
	"math"
	"strings"
	"testing"

	"repro/internal/ssd"
	"repro/internal/storage"
)

// valLabel is a label stored by value, the way Label was before it became a
// table id: the reference for Equal and Compare.
type valLabel struct {
	kind ssd.Kind
	s    string
	n    int64
	f    float64
}

func toVal(l ssd.Label) valLabel {
	v := valLabel{kind: l.Kind()}
	switch l.Kind() {
	case ssd.KindSymbol:
		v.s, _ = l.Symbol()
	case ssd.KindString:
		v.s, _ = l.Text()
	case ssd.KindOID:
		v.s, _ = l.OIDVal()
	case ssd.KindInt:
		v.n, _ = l.IntVal()
	case ssd.KindFloat:
		v.f, _ = l.FloatVal()
	case ssd.KindBool:
		if b, _ := l.BoolVal(); b {
			v.n = 1
		}
	}
	return v
}

func (l valLabel) numeric() bool { return l.kind == ssd.KindInt || l.kind == ssd.KindFloat }

func (l valLabel) equal(m valLabel) bool {
	if l.kind == m.kind {
		return l == m
	}
	return l.numeric() && m.numeric() && valCmpNumeric(l, m) == 0
}

func (l valLabel) compare(m valLabel) int {
	if l.numeric() && m.numeric() {
		if c := valCmpNumeric(l, m); c != 0 {
			return c
		}
		return cmp.Compare(l.kind, m.kind)
	}
	if c := cmp.Compare(l.kind, m.kind); c != 0 {
		return c
	}
	switch l.kind {
	case ssd.KindSymbol, ssd.KindString, ssd.KindOID:
		return strings.Compare(l.s, m.s)
	case ssd.KindBool:
		return cmp.Compare(l.n, m.n)
	}
	return 0
}

func valCmpNumeric(l, m valLabel) int {
	switch {
	case l.kind == ssd.KindInt && m.kind == ssd.KindInt:
		return cmp.Compare(l.n, m.n)
	case l.kind == ssd.KindFloat && m.kind == ssd.KindFloat:
		return cmp.Compare(l.f, m.f)
	case l.kind == ssd.KindInt:
		return valCmpIntFloat(l.n, m.f)
	}
	return -valCmpIntFloat(m.n, l.f)
}

func valCmpIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f) || f < -1<<63:
		return 1
	case f >= 1<<63:
		return -1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

// drawLabel makes a label of kind k%6 from s (symbol, string, oid) or n
// (int, a float's bits, a bool's low bit).
func drawLabel(k byte, s string, n uint64) ssd.Label {
	switch ssd.Kind(k % 6) {
	case ssd.KindString:
		return ssd.Str(s)
	case ssd.KindInt:
		return ssd.Int(int64(n))
	case ssd.KindFloat:
		return ssd.Float(math.Float64frombits(n))
	case ssd.KindBool:
		return ssd.Bool(n&1 == 1)
	case ssd.KindOID:
		return ssd.OID(s)
	}
	return ssd.Sym(s)
}

// FuzzLabel checks the table contract on pairs of drawn labels: a label
// reads back from its encoding as the same label, two labels are == exactly
// when their encodings are equal, and Equal and Compare agree with labels
// stored by value.
func FuzzLabel(f *testing.F) {
	negZero := math.Float64bits(math.Copysign(0, -1))
	payloads := []uint64{
		0, negZero, 0x7ff8000000000000, 0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001,
		1<<53 - 1, 1 << 53, 1<<53 + 1, math.Float64bits(1 << 53), math.Float64bits(1<<53 + 2),
		1 << 63, 1<<63 - 1, math.Float64bits(-1 << 63), math.Float64bits(1 << 63),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), 1, 2, math.Float64bits(2),
	}
	kinds := []ssd.Kind{ssd.KindInt, ssd.KindFloat}
	for i, a := range payloads {
		b := payloads[(i+1)%len(payloads)]
		for _, ka := range kinds {
			for _, kb := range kinds {
				f.Add(byte(ka), "", a, byte(kb), "", b)
			}
		}
	}
	f.Add(byte(ssd.KindFloat), "", uint64(0), byte(ssd.KindFloat), "", negZero)
	f.Add(byte(ssd.KindSymbol), "", uint64(0), byte(ssd.KindString), "", uint64(0))
	f.Add(byte(ssd.KindSymbol), "Movie", uint64(0), byte(ssd.KindSymbol), "Movie", uint64(1))
	f.Add(byte(ssd.KindOID), "o1", uint64(0), byte(ssd.KindSymbol), "o1", uint64(0))
	f.Add(byte(ssd.KindBool), "", uint64(3), byte(ssd.KindBool), "", uint64(1))
	f.Fuzz(func(t *testing.T, ka byte, sa string, na uint64, kb byte, sb string, nb uint64) {
		a, b := drawLabel(ka, sa, na), drawLabel(kb, sb, nb)
		ea, eb := ssd.AppendLabel(nil, a), ssd.AppendLabel(nil, b)
		for _, c := range []struct {
			l   ssd.Label
			enc []byte
		}{{a, ea}, {b, eb}} {
			back, n, err := storage.ReadLabel(c.enc, 0)
			if err != nil || n != len(c.enc) || back != c.l {
				t.Fatalf("%v (% x) reads back as %v, %d bytes, %v", c.l, c.enc, back, n, err)
			}
		}
		if (a == b) != bytes.Equal(ea, eb) {
			t.Fatalf("%v == %v is %v, encodings % x and % x", a, b, a == b, ea, eb)
		}
		va, vb := toVal(a), toVal(b)
		if got, want := a.Equal(b), va.equal(vb); got != want {
			t.Fatalf("%v.Equal(%v) = %v, by value %v", a, b, got, want)
		}
		if got, want := a.Compare(b), va.compare(vb); got != want {
			t.Fatalf("%v.Compare(%v) = %d, by value %d", a, b, got, want)
		}
		// Less refines Compare into an order where only identical labels tie.
		if a.Less(b) == b.Less(a) && a != b || a.Compare(b) < 0 && !a.Less(b) {
			t.Fatalf("%v.Less(%v) = %v, reversed %v, Compare %d", a, b, a.Less(b), b.Less(a), a.Compare(b))
		}
	})
}

// TestLabelIdentityIsEncoding pins that floats are held by their bits: -0
// made after +0 is its own label and still encodes as -0.
func TestLabelIdentityIsEncoding(t *testing.T) {
	pos := ssd.Float(0)
	neg := ssd.Float(math.Copysign(0, -1))
	if pos == neg {
		t.Fatal("Float(-0) is the label of Float(+0)")
	}
	if !pos.Equal(neg) || pos.Compare(neg) != 0 {
		t.Error("-0 and +0 must stay numerically equal")
	}
	enc := ssd.AppendLabel(nil, neg)
	if want := []byte{byte(ssd.KindFloat), 0, 0, 0, 0, 0, 0, 0, 0x80}; !bytes.Equal(enc, want) {
		t.Fatalf("Float(-0) encodes as % x, want % x", enc, want)
	}
	back, _, err := storage.ReadLabel(enc, 0)
	if err != nil || back != neg || back == pos {
		t.Fatalf("-0 reads back as %v (%v), same label %v", back, err, back == neg)
	}
	if f, _ := back.FloatVal(); !math.Signbit(f) {
		t.Error("-0 lost its sign")
	}
	nan1, nan2 := ssd.Float(math.Float64frombits(0x7ff8000000000001)), ssd.Float(math.Float64frombits(0x7ff8000000000002))
	if nan1 == nan2 || nan1 != ssd.Float(math.Float64frombits(0x7ff8000000000001)) {
		t.Error("NaN labels must follow their payload bits")
	}
	if nan1.Equal(nan1) {
		t.Error("NaN must not be Equal to itself")
	}
}
