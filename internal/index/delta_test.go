package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

// applyDeltaToGraph mutates g according to a randomly drawn batch and
// returns the delta describing it, mirroring what internal/mutate produces.
func applyDeltaToGraph(g *ssd.Graph, rng *rand.Rand, ops int) ssd.Delta {
	var d ssd.Delta
	labels := []ssd.Label{
		ssd.Sym("a"), ssd.Sym("b"), ssd.Str("s1"), ssd.Str("s2"),
		ssd.Int(7), ssd.Float(7), ssd.Bool(true), ssd.OID("&x"),
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

func randIndexGraph(rng *rand.Rand) *ssd.Graph {
	g := ssd.New()
	g.AddNodes(10 + rng.Intn(20))
	applyDeltaToGraph(g, rng, 60) // seed edges; discard the delta
	return g
}

func sortRefs(refs []EdgeRef) []EdgeRef {
	out := append([]EdgeRef(nil), refs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

func TestLabelIndexApplyMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		g := randIndexGraph(rng)
		ix := BuildLabelIndex(g)
		d := applyDeltaToGraph(g, rng, 1+rng.Intn(10))
		got := ix.Apply(d)
		want := BuildLabelIndex(g)
		if !reflect.DeepEqual(got.Labels(), want.Labels()) {
			t.Fatalf("iter %d: label sets differ:\n got %v\nwant %v", iter, got.Labels(), want.Labels())
		}
		for _, l := range want.Labels() {
			if !reflect.DeepEqual(sortRefs(got.Lookup(l)), sortRefs(want.Lookup(l))) {
				t.Fatalf("iter %d: postings for %v differ:\n got %v\nwant %v",
					iter, l, sortRefs(got.Lookup(l)), sortRefs(want.Lookup(l)))
			}
		}
	}
}

func TestValueIndexApplyMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	probes := []ssd.Label{
		ssd.Sym("a"), ssd.Str("s1"), ssd.Int(7), ssd.Float(7), ssd.Bool(true), ssd.OID("&x"),
	}
	for iter := 0; iter < 100; iter++ {
		g := randIndexGraph(rng)
		ix := BuildValueIndex(g)
		d := applyDeltaToGraph(g, rng, 1+rng.Intn(10))
		got := ix.Apply(d)
		want := BuildValueIndex(g)
		if got.Len() != want.Len() {
			t.Fatalf("iter %d: Len %d != %d", iter, got.Len(), want.Len())
		}
		for _, p := range probes {
			if !reflect.DeepEqual(sortRefs(got.Exact(p)), sortRefs(want.Exact(p))) {
				t.Fatalf("iter %d: Exact(%v) differ", iter, p)
			}
			for _, op := range []pathexpr.CmpOp{pathexpr.OpGT, pathexpr.OpLE} {
				if !reflect.DeepEqual(sortRefs(got.Compare(op, p)), sortRefs(want.Compare(op, p))) {
					t.Fatalf("iter %d: Compare(%v, %v) differ", iter, op, p)
				}
			}
		}
		if !reflect.DeepEqual(sortRefs(got.Like("s%")), sortRefs(want.Like("s%"))) {
			t.Fatalf("iter %d: Like differ", iter)
		}
	}
}

// TestApplyLeavesReceiverUntouched pins the copy-on-write contract: the old
// index keeps answering for the old graph after Apply.
func TestApplyLeavesReceiverUntouched(t *testing.T) {
	g := ssd.New()
	a := g.AddNode()
	b := g.AddNode()
	g.AddEdge(g.Root(), ssd.Sym("x"), a)
	g.AddEdge(a, ssd.Str("v"), b)
	lx := BuildLabelIndex(g)
	vx := BuildValueIndex(g)
	oldX := fmt.Sprint(sortRefs(lx.Lookup(ssd.Sym("x"))))
	oldLen := vx.Len()

	d := ssd.Delta{
		Added:   []ssd.EdgeRec{{From: g.Root(), Label: ssd.Sym("x"), To: b}},
		Removed: []ssd.EdgeRec{{From: a, Label: ssd.Str("v"), To: b}},
	}
	lx2 := lx.Apply(d)
	vx2 := vx.Apply(d)

	if got := fmt.Sprint(sortRefs(lx.Lookup(ssd.Sym("x")))); got != oldX {
		t.Fatalf("receiver postings changed: %s != %s", got, oldX)
	}
	if vx.Len() != oldLen {
		t.Fatalf("receiver Len changed: %d != %d", vx.Len(), oldLen)
	}
	if len(lx2.Lookup(ssd.Sym("x"))) != 2 {
		t.Fatalf("new index postings = %v", lx2.Lookup(ssd.Sym("x")))
	}
	if len(vx2.Exact(ssd.Str("v"))) != 0 {
		t.Fatalf("new index still has removed entry")
	}
}

// byTargetOrder sorts refs the way a TargetView holds them.
func byTargetOrder(refs []EdgeRef) []EdgeRef {
	out := append([]EdgeRef(nil), refs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].From < out[j].From
	})
	return out
}

// TestByTargetAcrossApply: every view equals its label's postings in
// (To, From) order, before and after Apply; Into finds exactly the
// postings entering a node; Apply shares the views of labels the delta
// leaves alone and rebuilds the others.
func TestByTargetAcrossApply(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(iter int, ix *LabelIndex, g *ssd.Graph) {
		t.Helper()
		for _, l := range ix.Labels() {
			v := ix.ByTarget(l)
			if !reflect.DeepEqual([]EdgeRef(v), byTargetOrder(ix.Lookup(l))) {
				t.Fatalf("iter %d: view of %v = %v", iter, l, v)
			}
			for n := 0; n < g.NumNodes(); n++ {
				var want []EdgeRef
				for _, ref := range v {
					if ref.To == ssd.NodeID(n) {
						want = append(want, ref)
					}
				}
				if got := v.Into(ssd.NodeID(n)); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("iter %d: %v.Into(%d) = %v, want %v", iter, l, n, got, want)
				}
			}
		}
	}
	for iter := 0; iter < 100; iter++ {
		g := randIndexGraph(rng)
		ix := BuildLabelIndex(g)
		check(iter, ix, g)
		d := applyDeltaToGraph(g, rng, 1+rng.Intn(4))
		next := ix.Apply(d)
		touched := map[ssd.Label]bool{}
		nd := d.Normalize()
		for _, r := range append(nd.Added, nd.Removed...) {
			touched[r.Label] = true
		}
		for l, v := range next.views {
			if touched[l] {
				t.Fatalf("iter %d: Apply kept the view of touched label %v", iter, l)
			}
			if old := ix.views[l]; len(v) > 0 && &v[0] != &old[0] {
				t.Fatalf("iter %d: Apply copied the view of untouched label %v", iter, l)
			}
		}
		check(iter, next, g)
		if !reflect.DeepEqual(next.Labels(), BuildLabelIndex(g).Labels()) {
			t.Fatalf("iter %d: labels differ from a rebuild", iter)
		}
	}
}

// TestByTargetConcurrentReaders: readers racing on a cold index share one
// view per label (run under -race).
func TestByTargetConcurrentReaders(t *testing.T) {
	g := randIndexGraph(rand.New(rand.NewSource(4)))
	ix := BuildLabelIndex(g)
	labels := ix.Labels()
	views := make([][]TargetView, 8)
	var wg sync.WaitGroup
	for w := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, l := range labels {
				views[w] = append(views[w], ix.ByTarget(l))
			}
		}()
	}
	wg.Wait()
	for w := range views {
		for i, v := range views[w] {
			if len(v) > 0 && &v[0] != &views[0][i][0] {
				t.Fatalf("reader %d got its own view of %v", w, labels[i])
			}
		}
	}
}
