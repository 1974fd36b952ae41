package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ssd"
)

// applyDeltaToGraph mutates g according to a randomly drawn batch and
// returns the delta describing it, mirroring internal/index's delta property
// test (and what internal/mutate produces). The label palette includes
// numeric values so the histogram is exercised.
func applyDeltaToGraph(g *ssd.Graph, rng *rand.Rand, ops int) ssd.Delta {
	var d ssd.Delta
	labels := []ssd.Label{
		ssd.Sym("a"), ssd.Sym("b"), ssd.Str("s1"), ssd.Str("s2"),
		ssd.Int(7), ssd.Int(-300), ssd.Float(7), ssd.Float(0.25),
		ssd.Bool(true), ssd.OID("&x"),
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(3) {
		case 0: // add
			from := ssd.NodeID(rng.Intn(g.NumNodes()))
			to := ssd.NodeID(rng.Intn(g.NumNodes()))
			l := labels[rng.Intn(len(labels))]
			g.AddEdge(from, l, to)
			d.Added = append(d.Added, ssd.EdgeRec{From: from, Label: l, To: to})
		case 1: // delete
			from := ssd.NodeID(rng.Intn(g.NumNodes()))
			es := g.Out(from)
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			if g.DeleteEdge(from, e.Label, e.To) {
				d.Removed = append(d.Removed, ssd.EdgeRec{From: from, Label: e.Label, To: e.To})
			}
		default: // relabel
			from := ssd.NodeID(rng.Intn(g.NumNodes()))
			es := g.Out(from)
			if len(es) == 0 {
				continue
			}
			old := es[rng.Intn(len(es))].Label
			nl := labels[rng.Intn(len(labels))]
			if nl == old {
				continue
			}
			for _, e := range es {
				if e.Label == old {
					d.Removed = append(d.Removed, ssd.EdgeRec{From: from, Label: old, To: e.To})
					d.Added = append(d.Added, ssd.EdgeRec{From: from, Label: nl, To: e.To})
				}
			}
			g.Relabel(from, old, nl)
		}
	}
	return d
}

func randStatsGraph(rng *rand.Rand) *ssd.Graph {
	g := ssd.New()
	g.AddNodes(10 + rng.Intn(20))
	applyDeltaToGraph(g, rng, 60) // seed edges; discard the delta
	return g
}

// TestApplyMatchesRebuild is the incremental-maintenance property test: after
// any random mutation batch, the incrementally maintained statistics must
// equal a from-scratch rebuild, exactly — counts, source refcounts, and
// histogram.
func TestApplyMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 100; iter++ {
		g := randStatsGraph(rng)
		s := Build(g)
		// Chain several batches so drift would accumulate if Apply were
		// only approximately right.
		for batch := 0; batch < 3; batch++ {
			d := applyDeltaToGraph(g, rng, 1+rng.Intn(10))
			s = s.Apply(d)
		}
		want := Build(g)
		if !reflect.DeepEqual(s.Dump(), want.Dump()) {
			t.Fatalf("iter %d: incremental stats differ from rebuild:\n got %+v\nwant %+v",
				iter, s.Dump(), want.Dump())
		}
	}
}

// TestApplyLeavesReceiverUntouched pins the copy-on-write contract: the old
// statistics version keeps answering for the old graph after Apply.
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

// TestFromDumpRejectsCorruption: the codec relies on FromDump to reject
// structurally damaged dumps.
func TestFromDumpRejectsCorruption(t *testing.T) {
	g := ssd.New()
	a := g.AddNode()
	g.AddEdge(g.Root(), ssd.Sym("x"), a)
	g.AddEdge(g.Root(), ssd.Sym("y"), a)
	good := Build(g).Dump()
	if _, err := FromDump(good); err != nil {
		t.Fatalf("valid dump rejected: %v", err)
	}

	breakers := map[string]func(d *Dump){
		"labels out of order": func(d *Dump) { d.Labels[0], d.Labels[1] = d.Labels[1], d.Labels[0] },
		"bad edge total":      func(d *Dump) { d.Edges++ },
		"refcount sum":        func(d *Dump) { d.Labels[0].Srcs[0].N++ },
		"non-positive count":  func(d *Dump) { d.Labels[0].Count = 0 },
		"nodes out of order": func(d *Dump) {
			d.Labels[0].Srcs = []NodeCount{{Node: 5, N: 1}, {Node: 3, N: 1}}
		},
	}
	for name, damage := range breakers {
		d := Build(g).Dump() // fresh copy; damage mutates in place
		damage(&d)
		if _, err := FromDump(d); err == nil {
			t.Errorf("%s: corrupt dump accepted", name)
		}
	}
}
