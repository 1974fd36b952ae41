package index

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

func testGraph(t *testing.T) *ssd.Graph {
	t.Helper()
	g, err := ssd.Parse(`
	{Movie: {Title: "Casablanca", Year: 1942, Rating: 8.5},
	 Movie: {Title: "Annie Hall", Year: 1977},
	 Show: {Episode: 1200000, Actors: {"Allen"}},
	 activity: "acting",
	 Active: true}`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLabelIndexLookup(t *testing.T) {
	g := testGraph(t)
	ix := BuildLabelIndex(g)
	if got := ix.Lookup(ssd.Sym("Movie")); len(got) != 2 {
		t.Errorf("Movie occurrences = %d, want 2", len(got))
	}
	if got := ix.Lookup(ssd.Sym("Title")); len(got) != 2 {
		t.Errorf("Title occurrences = %d, want 2", len(got))
	}
	if got := ix.Lookup(ssd.Int(1942)); len(got) != 1 {
		t.Errorf("1942 occurrences = %d, want 1", len(got))
	}
	if got := ix.Lookup(ssd.Sym("Nope")); got != nil {
		t.Errorf("missing label = %v", got)
	}
	if ix.Len() == 0 {
		t.Error("Len = 0")
	}
}

func TestLabelIndexLabelsSorted(t *testing.T) {
	g := testGraph(t)
	ls := BuildLabelIndex(g).Labels()
	for i := 1; i < len(ls); i++ {
		if ls[i].Less(ls[i-1]) {
			t.Fatalf("labels not sorted at %d: %v", i, ls)
		}
	}
}

func TestValueIndexExact(t *testing.T) {
	g := testGraph(t)
	ix := BuildValueIndex(g)
	if got := ix.Exact(ssd.Str("Casablanca")); len(got) != 1 {
		t.Errorf("Exact Casablanca = %d, want 1", len(got))
	}
	if got := ix.Exact(ssd.Str("missing")); len(got) != 0 {
		t.Errorf("Exact missing = %d", len(got))
	}
}

func TestValueIndexCompare(t *testing.T) {
	g := testGraph(t)
	ix := BuildValueIndex(g)
	// "integers greater than 2^16" — §1.3.
	gt := ix.Compare(pathexpr.OpGT, ssd.Int(65536))
	if len(gt) != 1 { // 1200000
		t.Errorf("> 65536: %d hits, want 1", len(gt))
	}
	ge := ix.Compare(pathexpr.OpGE, ssd.Int(1942))
	if len(ge) != 3 { // 1942, 1977, 1200000
		t.Errorf(">= 1942: %d hits, want 3", len(ge))
	}
	lt := ix.Compare(pathexpr.OpLT, ssd.Float(1950.0))
	if len(lt) != 2 { // 1942 and 8.5
		t.Errorf("< 1950.0: %d hits, want 2", len(lt))
	}
	eq := ix.Compare(pathexpr.OpEQ, ssd.Float(1942.0))
	if len(eq) != 1 { // numeric overloading finds Int(1942)
		t.Errorf("= 1942.0: %d hits, want 1 (cross-kind)", len(eq))
	}
	ne := ix.Compare(pathexpr.OpNE, ssd.Int(1942))
	if len(ne) == 0 {
		t.Error("!= 1942 should match many labels")
	}
}

func TestValueIndexCompareAgainstScan(t *testing.T) {
	g := testGraph(t)
	ix := BuildValueIndex(g)
	ops := []pathexpr.CmpOp{pathexpr.OpLT, pathexpr.OpLE, pathexpr.OpGT, pathexpr.OpGE, pathexpr.OpEQ, pathexpr.OpNE}
	rhss := []ssd.Label{ssd.Int(1942), ssd.Float(1942), ssd.Float(8.5), ssd.Str("Annie Hall"), ssd.Int(0), ssd.Int(99999999)}
	for _, op := range ops {
		for _, rhs := range rhss {
			pred := pathexpr.CmpPred{Op: op, Rhs: rhs}
			want := normalizeRefs(ScanGraph(g, pred))
			got := normalizeRefs(ix.Compare(op, rhs))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: indexed %v, scan %v", op, rhs, got, want)
			}
		}
	}
}

func TestValueIndexLike(t *testing.T) {
	g := testGraph(t)
	ix := BuildValueIndex(g)
	// §1.3: attribute names starting with "act" (case-sensitive here).
	hits := ix.Like("act%")
	if len(hits) != 2 { // activity (symbol), "acting" (string)
		t.Errorf("like act%%: %d hits, want 2", len(hits))
	}
	all := ix.Like("%")
	if len(all) == 0 {
		t.Error("like %% should match all strings/symbols")
	}
	exact := ix.Like("Active")
	if len(exact) != 1 {
		t.Errorf("like Active = %d, want 1", len(exact))
	}
}

func TestLikeAgainstScan(t *testing.T) {
	g := testGraph(t)
	ix := BuildValueIndex(g)
	for _, pat := range []string{"act%", "%ing", "A%", "%a%", "Title", ""} {
		pred := pathexpr.LikePred{Pattern: pat}
		want := normalizeRefs(ScanGraph(g, pred))
		got := normalizeRefs(ix.Like(pat))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("like %q: indexed %v, scan %v", pat, got, want)
		}
	}
}

func TestScanGraph(t *testing.T) {
	g := testGraph(t)
	strs := ScanGraph(g, pathexpr.TypePred{Kind: ssd.KindString})
	if len(strs) != 4 { // Casablanca, Annie Hall, Allen, acting
		t.Errorf("string scan = %d, want 4", len(strs))
	}
}

// Property: indexed comparison equals scan on random data.
func TestCompareScanAgreementProperty(t *testing.T) {
	f := func(seed int64, rhsVal int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ssd.New()
		for i := 0; i < 50; i++ {
			switch rng.Intn(3) {
			case 0:
				g.AddLeaf(g.Root(), ssd.Int(int64(rng.Intn(100))-50))
			case 1:
				g.AddLeaf(g.Root(), ssd.Float(float64(rng.Intn(100))/4-10))
			default:
				g.AddLeaf(g.Root(), ssd.Str(string(rune('a'+rng.Intn(26)))))
			}
		}
		ix := BuildValueIndex(g)
		rhs := ssd.Int(rhsVal % 50)
		for _, op := range []pathexpr.CmpOp{pathexpr.OpLT, pathexpr.OpLE, pathexpr.OpGT, pathexpr.OpGE, pathexpr.OpEQ} {
			want := normalizeRefs(ScanGraph(g, pathexpr.CmpPred{Op: op, Rhs: rhs}))
			got := normalizeRefs(ix.Compare(op, rhs))
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func normalizeRefs(refs []EdgeRef) []EdgeRef {
	out := append([]EdgeRef(nil), refs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	if len(out) == 0 {
		return nil
	}
	return out
}
