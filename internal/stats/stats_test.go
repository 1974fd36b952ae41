package stats

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/ssd"
)

// TestApplyLeavesReceiverUntouched pins the copy-on-write contract: the old
// statistics version keeps answering for the old graph after Apply — also
// when the new version folds its overlay into a fresh base, and for a
// version whose overlay a later fold absorbed.
func TestApplyLeavesReceiverUntouched(t *testing.T) {
	g := ssd.New()
	a := g.AddNode()
	b := g.AddNode()
	g.AddEdge(g.Root(), ssd.Sym("x"), a)
	g.AddEdge(a, ssd.Int(42), b)
	s := Build(g)
	before := s.Dump()

	d := ssd.Delta{
		Added:   []ssd.EdgeRec{{From: g.Root(), Label: ssd.Sym("x"), To: b}},
		Removed: []ssd.EdgeRec{{From: a, Label: ssd.Int(42), To: b}},
		Sources: []ssd.SourceChange{{Label: ssd.Int(42), N: -1}},
	}
	s2 := s.Apply(d)

	if !reflect.DeepEqual(s.Dump(), before) {
		t.Fatalf("receiver changed by Apply:\n got %+v\nwant %+v", s.Dump(), before)
	}
	if s2.Count(ssd.Sym("x")) != 2 || s2.Count(ssd.Int(42)) != 0 {
		t.Fatalf("new version wrong: x=%d int42=%d", s2.Count(ssd.Sym("x")), s2.Count(ssd.Int(42)))
	}
	if s2.Edges() != s.Edges() {
		t.Fatalf("edge total: new %d, old %d (one add, one remove)", s2.Edges(), s.Edges())
	}
	if len(s2.over) == 0 {
		t.Fatal("a two-label delta folded the overlay")
	}

	// Enough fresh labels to fold: s3 gets a fresh base, and neither s2
	// (whose overlay it absorbed) nor s may see it.
	before2 := s2.Dump()
	var fresh ssd.Delta
	for i := 0; i <= minFold; i++ {
		l := ssd.Int(int64(1000 + i))
		fresh.Added = append(fresh.Added, ssd.EdgeRec{From: b, Label: l, To: a})
		fresh.Sources = append(fresh.Sources, ssd.SourceChange{Label: l, N: 1})
	}
	s3 := s2.Apply(fresh)
	if s3.over != nil {
		t.Fatalf("%d fresh labels did not fold (overlay %d)", len(fresh.Added), len(s3.over))
	}
	if !reflect.DeepEqual(s2.Dump(), before2) || !reflect.DeepEqual(s.Dump(), before) {
		t.Fatal("a fold changed an older version")
	}
	if got := s3.Count(ssd.Int(1000)); got != 1 || s3.Edges() != s2.Edges()+minFold+1 {
		t.Fatalf("folded version: count %d, edges %d", got, s3.Edges())
	}

	// And the folded version is itself a receiver Apply leaves alone.
	before3 := s3.Dump()
	s3.Apply(ssd.Delta{
		Removed: []ssd.EdgeRec{{From: b, Label: ssd.Int(1000), To: a}},
		Sources: []ssd.SourceChange{{Label: ssd.Int(1000), N: -1}},
	})
	if !reflect.DeepEqual(s3.Dump(), before3) {
		t.Fatal("Apply changed a folded receiver")
	}
}

// TestApplyNormalizes: an edge added and removed within one batch never
// existed; neither record may reach the counts.
func TestApplyNormalizes(t *testing.T) {
	g := ssd.New()
	a := g.AddNode()
	s := Build(g)
	rec := ssd.EdgeRec{From: g.Root(), Label: ssd.Sym("ghost"), To: a}
	s2 := s.Apply(ssd.Delta{Added: []ssd.EdgeRec{rec}, Removed: []ssd.EdgeRec{rec}})
	if s2.Count(ssd.Sym("ghost")) != 0 || s2.Edges() != 0 {
		t.Fatalf("cancelled pair leaked into stats: count=%d edges=%d",
			s2.Count(ssd.Sym("ghost")), s2.Edges())
	}
}

func TestAccessors(t *testing.T) {
	g := ssd.New()
	n1, n2, n3 := g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(g.Root(), ssd.Sym("t"), n1)
	g.AddEdge(g.Root(), ssd.Sym("t"), n2)
	g.AddEdge(n1, ssd.Sym("t"), n2)
	g.AddEdge(n2, ssd.Int(5), n3)
	g.AddEdge(n2, ssd.Int(500), n3)
	s := Build(g)
	if got := s.Count(ssd.Sym("t")); got != 3 {
		t.Errorf("Count(t) = %d, want 3", got)
	}
	if got := s.DistinctSources(ssd.Sym("t")); got != 2 {
		t.Errorf("DistinctSources(t) = %d, want 2", got)
	}
	if got := s.NumericCount(); got != 2 {
		t.Errorf("NumericCount = %d, want 2", got)
	}
	// 5 and 500 land in different buckets; a threshold between them splits
	// the mass (each bucket boundary contributes its half-bucket term).
	if got := s.FracGreater(50); got <= 0.4 || got >= 0.6 {
		t.Errorf("FracGreater(50) = %g, want ~0.5", got)
	}
	if got := s.FracLess(50); got <= 0.4 || got >= 0.6 {
		t.Errorf("FracLess(50) = %g, want ~0.5", got)
	}
	if got := s.FracGreater(1e12); got != 0 {
		t.Errorf("FracGreater(1e12) = %g, want 0", got)
	}
}

// TestBucketOfMonotone pins the histogram bucket function's monotonicity —
// the property that makes range selectivity a prefix/suffix sum — across
// sign changes and the clamped extremes.
func TestBucketOfMonotone(t *testing.T) {
	vals := []float64{
		math.Inf(-1), -1e300, -65536, -300, -7, -1, -0.25, -1e-300,
		0, 1e-300, 0.25, 1, 7, 300, 65536, 1e300, math.Inf(1),
	}
	prev := -1
	for _, v := range vals {
		b := bucketOf(v)
		if b < 0 || b >= HistBuckets {
			t.Fatalf("bucketOf(%g) = %d out of range", v, b)
		}
		if b < prev {
			t.Fatalf("bucketOf not monotone at %g: %d < %d", v, b, prev)
		}
		prev = b
	}
}
