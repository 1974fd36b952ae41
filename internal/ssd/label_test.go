package ssd

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestLabelConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		l    Label
		kind Kind
		str  string
	}{
		{Sym("Movie"), KindSymbol, "Movie"},
		{Str("Casablanca"), KindString, `"Casablanca"`},
		{Int(1942), KindInt, "1942"},
		{Int(-7), KindInt, "-7"},
		{Float(1.2e6), KindFloat, "1.2e+06"},
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
		{OID("o17"), KindOID, "&o17"},
	}
	for _, c := range cases {
		if c.l.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.l, c.l.Kind(), c.kind)
		}
		if got := c.l.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
	if s, ok := Sym("x").Symbol(); !ok || s != "x" {
		t.Errorf("Symbol() = %q, %v", s, ok)
	}
	if _, ok := Str("x").Symbol(); ok {
		t.Error("Str.Symbol() should not be ok")
	}
	if v, ok := Int(3).IntVal(); !ok || v != 3 {
		t.Errorf("IntVal() = %d, %v", v, ok)
	}
	if v, ok := Float(2.5).FloatVal(); !ok || v != 2.5 {
		t.Errorf("FloatVal() = %g, %v", v, ok)
	}
	if v, ok := Bool(true).BoolVal(); !ok || !v {
		t.Errorf("BoolVal() = %v, %v", v, ok)
	}
	if id, ok := OID("a").OIDVal(); !ok || id != "a" {
		t.Errorf("OIDVal() = %q, %v", id, ok)
	}
}

func TestLabelZeroValue(t *testing.T) {
	var l Label
	if l.Kind() != KindSymbol {
		t.Fatalf("zero label kind = %v, want symbol", l.Kind())
	}
	if s, ok := l.Symbol(); !ok || s != "" {
		t.Fatalf("zero label = %q, %v", s, ok)
	}
}

func TestLabelEqualCrossNumeric(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if !Float(2.0).Equal(Int(2)) {
		t.Error("Float(2.0) should equal Int(2)")
	}
	if Int(2).Equal(Float(2.5)) {
		t.Error("Int(2) should not equal Float(2.5)")
	}
	if Int(2).Equal(Str("2")) {
		t.Error("Int(2) should not equal Str(\"2\")")
	}
	if Sym("x").Equal(Str("x")) {
		t.Error("Sym should not equal Str of same payload")
	}
	if !Sym("x").Equal(Sym("x")) {
		t.Error("identical symbols should be equal")
	}
	if OID("a").Equal(OID("b")) {
		t.Error("distinct oids should differ")
	}
}

func TestLabelCompareTotalOrder(t *testing.T) {
	ls := []Label{
		Sym("A"), Sym("B"), Str("A"), Str("B"),
		Int(-1), Int(0), Int(65536), Float(0.5), Float(1e9),
		Bool(false), Bool(true), OID("a"), OID("b"),
	}
	for _, a := range ls {
		if a.Compare(a) != 0 {
			t.Errorf("Compare(%v,%v) != 0", a, a)
		}
		for _, b := range ls {
			if a.Compare(b) != -b.Compare(a) {
				t.Errorf("Compare(%v,%v) not antisymmetric", a, b)
			}
			for _, c := range ls {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Errorf("Compare not transitive on %v ≤ %v ≤ %v", a, b, c)
				}
			}
		}
	}
}

func TestLabelCompareNumeric(t *testing.T) {
	if Int(2).Compare(Float(2.5)) != -1 {
		t.Error("2 < 2.5 across kinds")
	}
	if Float(3.5).Compare(Int(3)) != 1 {
		t.Error("3.5 > 3 across kinds")
	}
	if Int(2).Compare(Float(2.0)) == 0 {
		t.Error("tie between Int(2) and Float(2.0) must break by kind for total order")
	}
}

// TestLabelCompareExactBeyond2to53 pins that ints are never rounded to
// floats: distinct ints beyond 2⁵³ are ordered, and an int and a float are
// compared by their exact values.
func TestLabelCompareExactBeyond2to53(t *testing.T) {
	const p53 = 1 << 53
	cases := []struct {
		a, b Label
		want int
	}{
		{Int(p53), Int(p53 + 1), -1},
		{Int(p53 + 1), Int(p53), 1},
		{Int(p53 - 1), Int(p53), -1},
		{Int(p53 + 1), Float(p53), 1},
		{Float(p53), Int(p53 + 1), -1},
		{Int(p53 - 1), Float(p53), -1},
		{Int(p53), Float(p53), -1}, // numerically equal: kind breaks the tie
		{Int(math.MaxInt64), Float(1 << 63), -1},
		{Float(1 << 63), Int(math.MaxInt64), 1},
		{Int(math.MinInt64), Float(-1 << 63), -1},
		{Int(math.MinInt64), Int(math.MinInt64 + 1), -1},
		{Int(math.MinInt64), Float(math.Inf(-1)), 1},
		{Int(math.MaxInt64), Float(math.Inf(1)), -1},
		{Int(-3), Float(-2.5), -1},
		{Int(-2), Float(-2.5), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if Int(p53 + 1).Equal(Float(p53)) {
		t.Error("Int(2⁵³+1) equals Float(2⁵³)")
	}
	if Int(math.MaxInt64).Equal(Float(1 << 63)) {
		t.Error("Int(MaxInt64) equals Float(2⁶³)")
	}
	if !Int(math.MinInt64).Equal(Float(-1<<63)) || !Float(p53).Equal(Int(p53)) {
		t.Error("numerically equal int and float must be Equal")
	}
}

func TestLabelSortStable(t *testing.T) {
	ls := []Label{Int(3), Sym("z"), Str("a"), Int(1), Sym("a"), Float(2.5)}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Less(ls[j]) })
	want := []Label{Sym("a"), Sym("z"), Str("a"), Int(1), Float(2.5), Int(3)}
	for i := range want {
		if ls[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v (full: %v)", i, ls[i], want[i], ls)
		}
	}
}

func TestLabelNumeric(t *testing.T) {
	if v, ok := Int(7).Numeric(); !ok || v != 7 {
		t.Errorf("Numeric(Int 7) = %g, %v", v, ok)
	}
	if v, ok := Float(2.25).Numeric(); !ok || v != 2.25 {
		t.Errorf("Numeric(Float) = %g, %v", v, ok)
	}
	if _, ok := Str("7").Numeric(); ok {
		t.Error("strings are not numeric")
	}
	if _, ok := Bool(true).Numeric(); ok {
		t.Error("bools are not numeric")
	}
}

func TestFloatFormatting(t *testing.T) {
	if got := Float(2).String(); got != "2.0" {
		t.Errorf("Float(2).String() = %q, want 2.0 (must stay distinct from int)", got)
	}
	if got := Float(math.Inf(1)).String(); got != "inf" {
		t.Errorf("inf formatting = %q", got)
	}
	if got := Float(math.Inf(-1)).String(); got != "-inf" {
		t.Errorf("-inf formatting = %q", got)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindSymbol: "symbol", KindString: "string", KindInt: "int",
		KindFloat: "float", KindBool: "bool", KindOID: "oid",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestIsDataIsSymbol(t *testing.T) {
	if !Sym("a").IsSymbol() || Sym("a").IsData() {
		t.Error("Sym classification wrong")
	}
	for _, l := range []Label{Str("x"), Int(1), Float(1), Bool(true)} {
		if !l.IsData() || l.IsSymbol() {
			t.Errorf("%v classification wrong", l)
		}
	}
	if OID("x").IsData() || OID("x").IsSymbol() {
		t.Error("OID is neither data nor symbol")
	}
}

// Property: Compare is consistent with Equal for same-kind labels; an int
// equals the float nearest to it exactly when that float is the int, and
// then Compare breaks the tie by kind only.
func TestCompareEqualConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		ia, ib := Int(a), Int(b)
		if ia.Equal(ib) != (ia.Compare(ib) == 0) {
			return false
		}
		fa := Float(float64(a))
		exact := float64(a) < 1<<63 && int64(float64(a)) == a
		if ia.Equal(fa) != exact {
			return false
		}
		return !exact || ia.Compare(fa) == -1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLabelAndEdgeSize guards the table layout: a label is a 4-byte id and
// an edge a label plus a node id, with no pointer for the collector to
// scan.
func TestLabelAndEdgeSize(t *testing.T) {
	if s := unsafe.Sizeof(Label{}); s != 4 {
		t.Errorf("Label is %d bytes, want 4", s)
	}
	if s := unsafe.Sizeof(Edge{}); s != 8 {
		t.Errorf("Edge is %d bytes, want 8", s)
	}
	if Sym("") != (Label{}) {
		t.Error(`Sym("") is not the zero Label`)
	}
}

// TestLabelTableInternsOnce: the table adds an entry per distinct encoding
// only, so remaking labels, or looking their bytes up, does not grow it.
func TestLabelTableInternsOnce(t *testing.T) {
	const n = 5000
	size := func() uint32 {
		table.mu.Lock()
		defer table.mu.Unlock()
		return table.n
	}
	before := size()
	// The table outlives a test run: name this run's labels after the
	// table's size so a rerun (-count) makes new ones.
	build := func() []Label {
		ls := make([]Label, 0, 2*n)
		for i := 0; i < n; i++ {
			s := "interned once " + strconv.Itoa(int(before)) + "/" + strconv.Itoa(i)
			ls = append(ls, Str(s), OID(s))
		}
		return ls
	}
	first := build()
	grown := size() - before
	if grown != 2*n {
		t.Fatalf("%d distinct labels added %d entries", 2*n, grown)
	}
	again := build()
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("%v remade as a different label", first[i])
		}
		l, ok := LookupLabel(AppendLabel(nil, first[i]))
		if !ok || l != first[i] {
			t.Fatalf("LookupLabel(%v) = %v, %v", first[i], l, ok)
		}
	}
	if size() != before+grown {
		t.Fatalf("remaking %d labels grew the table by %d", len(first), size()-before-grown)
	}
	const unmade = "only looked up"
	probe := append([]byte{byte(KindString), byte(len(unmade))}, unmade...)
	if l, ok := LookupLabel(probe); ok || size() != before+grown {
		t.Fatalf("LookupLabel of unmade bytes = %v, %v; table grew by %d", l, ok, size()-before-grown)
	}
}

// TestLabelTableConcurrent: goroutines making overlapping labels at once
// agree on every label's id, across the table's growth.
func TestLabelTableConcurrent(t *testing.T) {
	const workers, n = 4, 3000
	got := make([][]Label, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				l := Sym("concurrent " + strconv.Itoa(i))
				got[w] = append(got[w], l)
				if s, _ := l.Symbol(); s != "concurrent "+strconv.Itoa(i) {
					t.Errorf("label %d reads back as %q", i, s)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[0] {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d made label %d as id %d, worker 0 as %d", w, i, got[w][i].id, got[0][i].id)
			}
		}
	}
}
