package query

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Golden-plan tests: the planner's atom ordering and access-path choices on
// the moviedb and biobrowse (ACeDB) example graphs must stay stable.

func moviePlanGraph(t *testing.T) *ssd.Graph {
	t.Helper()
	return workload.Movies(workload.DefaultMovieConfig(200))
}

func bioPlanGraph(t *testing.T) *ssd.Graph {
	t.Helper()
	return workload.ACeDB(workload.BioConfig{Objects: 100, MaxDepth: 6, Fanout: 3, Seed: 11})
}

func planFor(t *testing.T, g *ssd.Graph, src string, opts PlanOptions) *Plan {
	t.Helper()
	p, err := NewPlan(MustParse(src), g, opts)
	if err != nil {
		t.Fatalf("plan %q: %v", src, err)
	}
	return p
}

func atomOrder(p *Plan) []string {
	var vars []string
	for _, a := range p.Atoms() {
		vars = append(vars, a.Var)
	}
	return vars
}

func TestPlanOrdersSelectiveAtomsFirst(t *testing.T) {
	g := moviePlanGraph(t)
	// The paper's Allen query: the cheap single-label Title atom must run
	// before the expensive Cast._* closure, regardless of textual order.
	p := planFor(t, g, `
		select {Title: T}
		from DB.Entry.Movie M,
		     M.Cast._* A,
		     M.Title T
		where A = "Allen"`, PlanOptions{})
	want := []string{"M", "T", "A"}
	got := atomOrder(p)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("atom order = %v, want %v\n%s", got, want, p.Explain())
	}
}

func TestPlanRespectsDependencies(t *testing.T) {
	g := moviePlanGraph(t)
	// T depends on M: no ordering may hoist it above its source.
	p := planFor(t, g, `
		select T
		from DB._* X,
		     DB.Entry.Movie M,
		     M.Title T`, PlanOptions{})
	pos := map[string]int{}
	for i, v := range atomOrder(p) {
		pos[v] = i
	}
	if pos["T"] < pos["M"] {
		t.Errorf("T planned before its source M:\n%s", p.Explain())
	}
	// And the wildcard closure X must sort last: it is the most expensive.
	if pos["X"] != 2 {
		t.Errorf("wildcard atom X should run last, order=%v", atomOrder(p))
	}
}

func TestPlanChoosesIndexSeek(t *testing.T) {
	g := moviePlanGraph(t)
	ix := index.BuildLabelIndex(g)
	p := planFor(t, g, `select X from DB._*.Episode X`, PlanOptions{Label: ix})
	atoms := p.Atoms()
	if atoms[0].Access != AccessIndexSeek {
		t.Errorf("access = %v, want index-seek\n%s", atoms[0].Access, p.Explain())
	}
	// Without the index the same atom must fall back to forward traversal.
	p2 := planFor(t, g, `select X from DB._*.Episode X`, PlanOptions{})
	if got := p2.Atoms()[0].Access; got != AccessForward {
		t.Errorf("access without index = %v, want forward", got)
	}
}

func TestPlanChoosesIndexBackward(t *testing.T) {
	g := moviePlanGraph(t)
	ix := index.BuildLabelIndex(g)
	// TV-Show is ~5x rarer than Entry: seek it and verify backward.
	p := planFor(t, g, `select X from DB.Entry.TV-Show.Episode X`, PlanOptions{Label: ix})
	if got := p.Atoms()[0].Access; got != AccessIndexBackward {
		t.Errorf("access = %v, want index-backward\n%s", got, p.Explain())
	}
	// Entry.Movie.Title has no rare interior label: stay forward.
	p2 := planFor(t, g, `select X from DB.Entry.Movie.Title X`, PlanOptions{Label: ix})
	if got := p2.Atoms()[0].Access; got != AccessForward {
		t.Errorf("access = %v, want forward\n%s", got, p2.Explain())
	}
}

func TestPlanChoosesDataGuide(t *testing.T) {
	g := bioPlanGraph(t)
	guide := dataguide.MustBuild(g)
	p := planFor(t, g, `select X from DB.Object.Name X`, PlanOptions{Guide: guide})
	if got := p.Atoms()[0].Access; got != AccessGuide {
		t.Errorf("access = %v, want dataguide\n%s", got, p.Explain())
	}
	// Atoms anchored at a variable cannot use the (root-anchored) guide.
	p2 := planFor(t, g, `select Y from DB.Object X, X.Name Y`, PlanOptions{Guide: guide})
	for _, a := range p2.Atoms()[1:] {
		if a.Access != AccessForward {
			t.Errorf("non-root atom %s uses %v", a.Var, a.Access)
		}
	}
}

func TestPlanVarStepsDisableScanAccess(t *testing.T) {
	g := bioPlanGraph(t)
	ix := index.BuildLabelIndex(g)
	guide := dataguide.MustBuild(g)
	// A label-variable step binds, so no scan access path may replace it.
	p := planFor(t, g, `select {%L} from DB.Object.%L X`, PlanOptions{Label: ix, Guide: guide})
	if got := p.Atoms()[0].Access; got != AccessForward {
		t.Errorf("access = %v, want forward for binding atom", got)
	}
}

func TestPlanExplain(t *testing.T) {
	g := moviePlanGraph(t)
	ix := index.BuildLabelIndex(g)
	p := planFor(t, g, `
		select {Title: T}
		from DB.Entry.Movie M, M.Title T, M.Cast._* A
		where A = "Allen"`, PlanOptions{Label: ix})
	out := p.Explain()
	for _, want := range []string{"plan:", "access=", "M :=", "est="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestPlanSeekMatchesForward(t *testing.T) {
	// The index-seek access path must return the same node set as forward
	// traversal, including when part of the graph is unreachable.
	g := ssd.New()
	a := g.AddLeaf(g.Root(), ssd.Sym("a"))
	g.AddLeaf(a, ssd.Sym("hit"))
	g.AddLeaf(g.Root(), ssd.Sym("hit"))
	orphan := g.AddNode() // unreachable source with the same label
	g.AddEdge(orphan, ssd.Sym("hit"), g.AddNode())

	q := MustParse(`select X from DB._*.hit X`)
	ix := index.BuildLabelIndex(g)
	p, err := NewPlan(q, g, PlanOptions{Label: ix})
	if err != nil {
		t.Fatal(err)
	}
	if p.Atoms()[0].Access != AccessIndexSeek {
		t.Fatalf("expected index-seek, got %v", p.Atoms()[0].Access)
	}
	rows := p.Rows(0)
	if len(rows) != 2 {
		t.Errorf("seek rows = %d, want 2 (orphan source must be filtered)", len(rows))
	}
}

// skewQuery is the golden query for the skewed fixture: the Score atom has
// huge fan-out but a near-useless predicate, the Tag atom has tiny fan-out
// thanks to the rare "needle" value — statistics are the only way to tell.
const skewQuery = `
	select T
	from DB.Entry.Movie M,
	     M.Reviews.Score S,
	     M.Tag X,
	     M.Title T
	where S > 0 and X = "needle"`

// TestCostBasedPlanOnSkewedFixture is the golden-plan test for the
// statistics-fed cost model: on a distribution with skewed selectivities the
// planner fed statistics must pick a measurably different atom order from
// the same planner fed only a label scan (the cheap Title atom before the
// wide Reviews subtree), render honest estimates in Explain, and still
// produce the same result.
func TestCostBasedPlanOnSkewedFixture(t *testing.T) {
	g := workload.Skewed(workload.DefaultSkewConfig(1000))
	st := stats.Build(g)

	np := planFor(t, g, skewQuery, PlanOptions{})
	if got, want := atomOrder(np), []string{"M", "X", "S", "T"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("no-statistics atom order = %v, want %v\n%s", got, want, np.Explain())
	}

	cp := planFor(t, g, skewQuery, PlanOptions{Stats: st})
	if got, want := atomOrder(cp), []string{"M", "X", "T", "S"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("cost-based atom order = %v, want %v\n%s", got, want, cp.Explain())
	}

	// Golden Explain: per-atom estimated cardinality and access path. The
	// generator and the cost model are both deterministic, so this output
	// is stable; update it deliberately when the model changes.
	wantExplain := strings.Join([]string{
		"plan: 4 atoms, 4 tree / 0 label / 0 path slots",
		"  1. M := DB.Entry.Movie  access=forward est=1e+03",
		"  2. X := M.Tag  access=forward est=1.17",
		"     filter placed here",
		"  3. T := M.Title  access=forward est=1.17",
		"  4. S := M.Reviews.Score  access=forward est=9.33",
		"     filter placed here",
		"",
	}, "\n")
	if got := cp.Explain(); got != wantExplain {
		t.Errorf("cost-based Explain:\n got: %q\nwant: %q", got, wantExplain)
	}

	// ExplainAnalyze annotates the same plan with observed row counts.
	an, err := cp.ExplainAnalyze(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"est=1e+03 actual=1000", "est=1.17 actual=10", "est=9.33 actual=80"} {
		if !strings.Contains(an, want) {
			t.Errorf("ExplainAnalyze missing %q:\n%s", want, an)
		}
	}

	// Both orders must agree with each other and with the naive engine.
	q := MustParse(skewQuery)
	naive, err := EvalNaive(q, g)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Plan{"no-stats": np, "cost": cp} {
		res, err := p.EvalGraphCtx(nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if gs, ws := ssd.FormatRoot(res), ssd.FormatRoot(naive); gs != ws {
			t.Errorf("%s result differs from naive:\n got: %s\nwant: %s", name, gs, ws)
		}
	}
}
