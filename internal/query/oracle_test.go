package query_test

// Checks against the reference evaluator (internal/oracle). They live in the
// external test package because the oracle imports package query.

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/bisim"
	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestEnginesAgree: the planned engine answers every engine fixture
// byte-identically to the reference evaluator, under every combination of
// label index and DataGuide.
func TestEnginesAgree(t *testing.T) {
	for _, c := range query.EngineCases {
		t.Run(c.Name, func(t *testing.T) {
			g := query.CaseGraph(t, c)
			q := query.MustParse(c.Query)
			// The reference evaluator has no binding mechanism: it substitutes
			// parameters into the AST first.
			want, err := oracle.Eval(q, g, c.Params)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			ix := index.BuildLabelIndex(g)
			guide := dataguide.MustBuild(g)
			variants := map[string]query.PlanOptions{
				"bare":        {},
				"index":       {Label: ix},
				"guide":       {Guide: guide},
				"index+guide": {Label: ix, Guide: guide},
			}
			for vn, po := range variants {
				got, err := query.EvalPlanned(q, g, po, c.Params)
				if err != nil {
					t.Fatalf("planned/%s: %v", vn, err)
				}
				if !bisim.Equal(got, want) {
					t.Errorf("planned/%s result differs:\n got: %s\nwant: %s",
						vn, ssd.FormatRoot(got), ssd.FormatRoot(want))
				}
				// Minimized results are canonically ordered: the engines
				// must agree byte-for-byte, not just up to bisimulation.
				if gs, ws := ssd.FormatRoot(got), ssd.FormatRoot(want); gs != ws {
					t.Errorf("planned/%s text differs:\n got: %s\nwant: %s", vn, gs, ws)
				}
			}
		})
	}
}

// TestEnginesAgreeSignedZero: 0, 0.0 and -0.0 are three distinct labels
// (label identity is encoding identity) that compare equal, so the planned
// engine, under every planner input, must find all three for X = 0.0 and
// X = 0 exactly as the reference evaluator does.
func TestEnginesAgreeSignedZero(t *testing.T) {
	g := ssd.New()
	for i, l := range []ssd.Label{ssd.Int(0), ssd.Float(0), ssd.Float(math.Copysign(0, -1)), ssd.Int(1)} {
		x, v := g.AddNode(), g.AddNode()
		g.AddEdge(g.Root(), ssd.Sym("a"), x)
		g.AddEdge(g.Root(), l, x)
		g.AddEdge(x, l, v)
		// Keep the four values apart under bisimulation.
		g.AddEdge(v, ssd.Int(int64(i)), g.AddNode())
	}
	ix := index.BuildLabelIndex(g)
	guide := dataguide.MustBuild(g)
	variants := map[string]query.PlanOptions{
		"bare":        {},
		"index":       {Label: ix},
		"guide":       {Guide: guide},
		"index+guide": {Label: ix, Guide: guide},
		"stats":       {Label: ix, Stats: stats.Build(g)},
	}
	for _, src := range []string{
		`select X from DB.a X where X = 0.0`,
		`select X from DB.a X where X = 0`,
		`select X from DB.a X where X = -0.0`,
		`select {L: %L} from DB.%L X where %L = 0.0`,
		`select X from DB.a X where X < 0.5`,
	} {
		q := query.MustParse(src)
		want, err := oracle.Eval(q, g, nil)
		if err != nil {
			t.Fatalf("oracle %q: %v", src, err)
		}
		if want.NumEdges() == 0 {
			t.Fatalf("%q: the oracle finds nothing", src)
		}
		for vn, po := range variants {
			got, err := query.EvalPlanned(q, g, po, nil)
			if err != nil {
				t.Fatalf("%q planned/%s: %v", src, vn, err)
			}
			if gs, ws := ssd.FormatRoot(got), ssd.FormatRoot(want); gs != ws {
				t.Errorf("%q planned/%s:\n got: %s\nwant: %s", src, vn, gs, ws)
			}
		}
	}
}

// TestEnginesAgreeOnGenerated cross-checks over the scalable moviedb
// generator, where references create shared structure and cycles.
func TestEnginesAgreeOnGenerated(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(60))
	queries := []string{
		`select T from DB.Entry.Movie.Title T`,
		`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`,
		`select {Name: %N} from DB.Entry._.Cast.(isint|Credit.Actors|Special-Guests)? C, C.%N L where isstring(%N)`,
		`select X from DB.Entry.TV-Show.Episode X`,
		`select X from DB._*.Episode X`,
		`select {RefTitle: T} from DB.Entry.Movie M, M.References.Movie.Title T`,
	}
	ix := index.BuildLabelIndex(g)
	for _, src := range queries {
		q := query.MustParse(src)
		want, err := oracle.Eval(q, g, nil)
		if err != nil {
			t.Fatalf("oracle %q: %v", src, err)
		}
		got, err := query.EvalPlanned(q, g, query.PlanOptions{Label: ix}, nil)
		if err != nil {
			t.Fatalf("planned %q: %v", src, err)
		}
		if !bisim.Equal(got, want) {
			t.Errorf("engines differ on %q", src)
		}
	}
}

func TestPathVarBindsWitness(t *testing.T) {
	g := query.Fig1DB(t)
	q := query.MustParse(`select @P from DB.@P X where X = "Casablanca"`)
	rows, err := oracle.Rows(q, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	p := rows[0].Paths["P"]
	want := []ssd.Label{ssd.Sym("Entry"), ssd.Sym("Movie"), ssd.Sym("Title")}
	if len(p) != len(want) {
		t.Fatalf("witness = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("witness[%d] = %v, want %v", i, p[i], want[i])
		}
	}
}

func TestPathLen(t *testing.T) {
	g := query.Fig1DB(t)
	// Nodes whose shortest witness path is exactly 2 edges long.
	q := query.MustParse(`select X from DB.@P X where pathlen(@P) = 2`)
	rows, err := oracle.Rows(q, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Depth-2 nodes: Movie×2, TV-Show objects = 3 distinct nodes.
	if len(rows) != 3 {
		t.Fatalf("depth-2 nodes = %d, want 3", len(rows))
	}
	// Constrain search depth: strings within 4 edges of the root.
	q2 := query.MustParse(`select {%V} from DB.@P X, X.%V Y where isstring(%V) and pathlen(@P) < 4`)
	rows2, err := oracle.Rows(q2, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows2 {
		if len(r.Paths["P"]) >= 4 {
			t.Fatalf("path too long: %v", r.Paths["P"])
		}
	}
	if len(rows2) == 0 {
		t.Fatal("no shallow strings found")
	}
}

func TestPathVarOnCycle(t *testing.T) {
	// Witness paths are shortest, so cycles terminate.
	g := ssd.MustParse(`#r{a: {b: #r, v: 1}}`)
	q := query.MustParse(`select @P from DB.@P X where X = 1`)
	rows, err := oracle.Rows(q, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if got := len(rows[0].Paths["P"]); got != 2 { // a.v
		t.Errorf("witness length = %d, want 2", got)
	}
}

func TestRowCap(t *testing.T) {
	g := query.Fig1DB(t)
	q := query.MustParse(`select X from DB._* X`)
	rows, err := oracle.Rows(q, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("row cap: %d rows, want 3", len(rows))
	}
}

func TestEvalRowsBindings(t *testing.T) {
	g := query.Fig1DB(t)
	q := query.MustParse(`select T from DB.Entry.Movie M, M.Title T`)
	rows, err := oracle.Rows(q, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if _, ok := r.Trees["M"]; !ok {
			t.Error("M unbound in row")
		}
		if _, ok := r.Trees["T"]; !ok {
			t.Error("T unbound in row")
		}
	}
}

func TestDedupBindingPaths(t *testing.T) {
	// Node reachable via two paths binds once per distinct node, not per
	// path.
	g := ssd.MustParse(`{a: #x{v: 1}, b: #x}`)
	q := query.MustParse(`select X from DB._ X`)
	rows, err := oracle.Rows(q, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("rows = %d, want 1 (shared node binds once)", len(rows))
	}
}

// TestCostBasedPlanOnSkewedFixture is the golden-plan test for the
// statistics-fed cost model: on a distribution with skewed selectivities the
// planner fed statistics must pick a measurably different atom order from
// the same planner fed only a label scan (the cheap Title atom before the
// wide Reviews subtree), render honest estimates in Explain, and still
// produce the same result.
func TestCostBasedPlanOnSkewedFixture(t *testing.T) {
	g := workload.Skewed(workload.DefaultSkewConfig(1000))
	st := stats.Build(g)

	np := query.PlanFor(t, g, skewQuery, query.PlanOptions{})
	if got, want := query.AtomOrder(np), []string{"M", "X", "S", "T"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("no-statistics atom order = %v, want %v\n%s", got, want, np.Explain())
	}

	cp := query.PlanFor(t, g, skewQuery, query.PlanOptions{Stats: st})
	if got, want := query.AtomOrder(cp), []string{"M", "X", "T", "S"}; strings.Join(got, ",") != strings.Join(want, ",") {
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
	q := query.MustParse(skewQuery)
	naive, err := oracle.Eval(q, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*query.Plan{"no-stats": np, "cost": cp} {
		res, err := p.EvalGraphCtx(nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if gs, ws := ssd.FormatRoot(res), ssd.FormatRoot(naive); gs != ws {
			t.Errorf("%s result differs from naive:\n got: %s\nwant: %s", name, gs, ws)
		}
	}
}

// TestParamStepDedupAndSubst: a $parameter path step behaves exactly like
// the exact-label step it substitutes to, on both engines.
func TestParamStepDedupAndSubst(t *testing.T) {
	g := workload.Fig1(false)
	q := query.MustParse(`select X from DB.Entry.$kind.Title X`)
	vals := map[string]ssd.Label{"kind": ssd.Sym("Movie")}

	sub, err := oracle.Subst(q, vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Params) != 0 {
		t.Fatalf("substituted query still has params %v", sub.Params)
	}
	want, err := oracle.Eval(sub, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := query.EvalPlanned(q, g, query.PlanOptions{}, vals)
	if err != nil {
		t.Fatal(err)
	}
	if gs, ws := ssd.FormatRoot(got), ssd.FormatRoot(want); gs != ws {
		t.Fatalf("param step differs:\n got: %s\nwant: %s", gs, ws)
	}

	// oracle.Rows refuses un-substituted parameterized queries.
	if _, err := oracle.Rows(q, g, 0); err == nil {
		t.Fatal("oracle.Rows on a parameterized query should error")
	}
}

// TestRecycledExecutorsMatchOracle: one pooled plan, run with parameter
// values that alternate between matching nothing and matching, answers
// every run as the reference evaluator does. Every run after the first
// reuses the executor the previous one closed, with its dedup node sets and
// traversals; the cases dedup a root atom and an atom opened once per outer
// row.
func TestRecycledExecutorsMatchOracle(t *testing.T) {
	g := query.Fig1DB(t)
	for _, c := range []struct {
		src       string
		miss, hit string // values of $k
	}{
		{`select {X: X} from DB.Entry.$k X`, "Nothing", "Movie"},
		{`select {T: T} from DB.Entry.Movie M, M.$k T`, "Nothing", "Title"},
	} {
		q := query.MustParse(c.src)
		p, err := query.NewPlan(q, g, query.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range query.DedupAtoms(p) {
			if !d {
				t.Fatalf("%q: atom %d does not dedup", c.src, i)
			}
		}
		var ex any
		for run := 0; run < 6; run++ {
			k := c.miss
			if run%2 == 1 {
				k = c.hit
			}
			vals := map[string]ssd.Label{"k": ssd.Sym(k)}
			want, err := oracle.Eval(q, g, vals)
			if err != nil {
				t.Fatal(err)
			}
			if k == c.hit && want.OutDegree(want.Root()) == 0 {
				t.Fatalf("%q with $k=%s: the oracle answers nothing", c.src, k)
			}
			got, err := p.EvalGraphCtx(nil, vals)
			if err != nil {
				t.Fatal(err)
			}
			if gs, ws := ssd.FormatRoot(got), ssd.FormatRoot(want); gs != ws {
				t.Fatalf("%q run %d ($k=%s):\n got: %s\nwant: %s", c.src, run, k, gs, ws)
			}
			if run == 0 {
				if ex = query.IdleExecutor(p); ex == nil {
					t.Fatalf("%q: the closed cursor left no executor to reuse", c.src)
				}
			} else if query.IdleExecutor(p) != ex {
				t.Fatalf("%q run %d ran on a fresh executor", c.src, run)
			}
		}
	}
}

// TestConcurrentNaiveSharedQuery: the naive evaluator compiles per-
// evaluation automata, so concurrent oracle.Eval over one parsed query is
// race-free too.
func TestConcurrentNaiveSharedQuery(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(60))
	q := query.MustParse(`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := oracle.Eval(q, g, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
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
