package query

import (
	"strings"
	"testing"

	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/ssd"
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
	rows := drainRows(t, p, 0)
	if len(rows) != 2 {
		t.Errorf("seek rows = %d, want 2 (orphan source must be filtered)", len(rows))
	}
}
