package stats_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mutate"
	"repro/internal/ssd"
	"repro/internal/stats"
)

// palette holds the recurring labels, numeric ones included so the
// histogram is exercised.
var palette = []ssd.Label{
	ssd.Sym("a"), ssd.Sym("b"), ssd.Str("s1"), ssd.Str("s2"),
	ssd.Int(7), ssd.Int(-300), ssd.Float(7), ssd.Float(0.25),
	ssd.Bool(true), ssd.OID("&x"),
}

// randomBatch draws a batch against g the way the write path builds one:
// fresh nodes, edges with palette or never-seen labels, deletes of present
// and missing edges, add-then-delete pairs, and relabels, including to the
// same label and of a label the node does not have. fresh numbers the
// never-seen labels across batches.
func randomBatch(t *testing.T, g *ssd.Graph, rng *rand.Rand, ops int, fresh *int) *mutate.Batch {
	t.Helper()
	b := mutate.NewBatch(g)
	n := g.NumNodes()
	node := func() ssd.NodeID { return ssd.NodeID(rng.Intn(n)) }
	label := func() ssd.Label {
		if rng.Intn(3) == 0 {
			*fresh++
			if rng.Intn(2) == 0 {
				return ssd.Int(int64(1000 + *fresh))
			}
			return ssd.Sym(fmt.Sprintf("f%d", *fresh))
		}
		return palette[rng.Intn(len(palette))]
	}
	// present picks an edge of g, if from is a node of g with one.
	present := func(from ssd.NodeID) (ssd.Edge, bool) {
		if int(from) >= g.NumNodes() {
			return ssd.Edge{}, false
		}
		es := g.Out(from)
		if len(es) == 0 {
			return ssd.Edge{}, false
		}
		return es[rng.Intn(len(es))], true
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(7) {
		case 0:
			b.AddNode()
			n++
		case 1, 2:
			must(b.AddEdge(node(), label(), node()))
		case 3: // delete a base edge, or one that is not there
			from := node()
			if e, ok := present(from); ok && rng.Intn(4) > 0 {
				must(b.DeleteEdge(from, e.Label, e.To))
			} else {
				must(b.DeleteEdge(from, label(), node()))
			}
		case 4: // add-then-delete pair
			from, to, l := node(), node(), label()
			must(b.AddEdge(from, l, to))
			must(b.DeleteEdge(from, l, to))
		case 5: // relabel a present label, to another or to itself
			from := node()
			if e, ok := present(from); ok {
				nl := label()
				if rng.Intn(4) == 0 {
					nl = e.Label
				}
				must(b.Relabel(from, e.Label, nl))
			}
		default: // relabel a label the node may not have
			must(b.Relabel(node(), label(), label()))
		}
	}
	return b
}

// TestApplyMatchesRebuild is the incremental-maintenance property test:
// random batches go through the real write path — mutate.ApplyCOW and
// mutate.ApplyInPlace in turn — and after every batch the statistics
// maintained from its delta must equal a from-scratch rebuild, exactly:
// counts, distinct sources and histogram. The fresh labels grow the
// overlay past its fold point several times.
func TestApplyMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	folds, fresh := 0, 0
	for iter := 0; iter < 20; iter++ {
		g := ssd.New()
		g.AddNodes(10 + rng.Intn(20))
		if _, err := mutate.ApplyInPlace(g, randomBatch(t, g, rng, 60, &fresh)); err != nil {
			t.Fatal(err)
		}
		s := stats.Build(g)
		for batch := 0; batch < 60; batch++ {
			b := randomBatch(t, g, rng, 1+rng.Intn(16), &fresh)
			var res mutate.Result
			var err error
			if batch%2 == 0 {
				g, res, err = mutate.ApplyCOW(g, b)
			} else {
				res, err = mutate.ApplyInPlace(g, b)
			}
			if err != nil {
				t.Fatal(err)
			}
			next := s.Apply(res.Delta)
			if next != s && stats.OverlayLen(next) == 0 {
				folds++
			}
			s = next
			if got, want := s.Dump(), stats.Build(g).Dump(); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d batch %d: incremental stats differ from rebuild:\n got %+v\nwant %+v",
					iter, batch, got, want)
			}
		}
	}
	if folds < 3 {
		t.Fatalf("only %d folds; the test must cross the fold point several times", folds)
	}
}
