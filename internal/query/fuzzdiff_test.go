package query

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bisim"
	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/ssd"
)

func randGraph(r *rand.Rand, n int) *ssd.Graph {
	g := ssd.New()
	first := g.AddNodes(n)
	nodes := []ssd.NodeID{g.Root()}
	for i := 0; i < n; i++ {
		nodes = append(nodes, first+ssd.NodeID(i))
	}
	labels := []ssd.Label{ssd.Sym("a"), ssd.Sym("b"), ssd.Sym("c"), ssd.Sym("rare"), ssd.Str("v"), ssd.Int(1), ssd.Int(7)}
	ne := n * 3
	for i := 0; i < ne; i++ {
		from := nodes[r.Intn(len(nodes))]
		to := nodes[r.Intn(len(nodes))]
		l := labels[r.Intn(len(labels))]
		g.AddEdge(from, l, to)
	}
	g.Dedup()
	return g
}

var fuzzQueries = []string{
	`select X from DB.a X`,
	`select X from DB._*.rare X`,
	`select X from DB.a.b X`,
	`select X from DB.a.b.c X`,
	`select {L: %L} from DB.%L X, X.%L Y`,
	`select {L: %L} from DB.a A, A.%L V, DB.b B, B.%L W`,
	`select X from DB._* X where exists X.%L.%L`,
	`select X from DB._* X where not exists X.a`,
	`select {P: @P} from DB.@P X where pathlen(@P) = 2 and X = 1`,
	`select X from DB._* X where X = 7 or exists X.rare`,
	`select {T: Y} from DB._* X, X.(a|b)* Y where Y = 1`,
	`select X from DB.a X, X.b Y, Y.c Z where Z = 7`,
}

func TestFuzzDiff(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 12)
		ix := index.BuildLabelIndex(g)
		guide, okb := dataguide.Build(g, 4096)
		for qi, src := range fuzzQueries {
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			want, err := EvalNaive(q, g)
			if err != nil {
				t.Fatalf("naive seed=%d q=%d: %v", seed, qi, err)
			}
			variants := map[string]PlanOptions{"bare": {}, "index": {Label: ix}}
			if okb {
				variants["guide"] = PlanOptions{Guide: guide}
				variants["both"] = PlanOptions{Label: ix, Guide: guide}
			}
			for vn, po := range variants {
				got, err := evalPlanned(q, g, po, nil)
				if err != nil {
					t.Fatalf("planned/%s seed=%d q=%q: %v", vn, seed, src, err)
				}
				if !bisim.Equal(got, want) {
					t.Errorf("DIVERGE %s seed=%d q=%q\n got: %s\nwant: %s", vn, seed, src, ssd.FormatRoot(got), ssd.FormatRoot(want))
				}
				if gs, ws := ssd.FormatRoot(got), ssd.FormatRoot(want); gs != ws {
					t.Errorf("TEXTDIFF %s seed=%d q=%q\n got: %s\nwant: %s", vn, seed, src, gs, ws)
				}
			}
			_ = fmt.Sprint(qi)
		}
	}
}
