package query

import (
	"testing"

	"repro/internal/bisim"
	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// Cross-check: the planned iterator engine must return results value-equal
// (bisimulation) to the naive evaluator on every query the test suite
// exercises, under every combination of planner inputs.

type engineCase struct {
	name   string
	graph  string // ssd text, or "" for the Figure 1 fixture
	query  string
	params map[string]ssd.Label // $parameter values, nil when none
}

// engineCases mirrors every evaluable query in query_test.go and
// pathvar_test.go, plus a few planner-specific shapes (index-seek,
// backward-chain, guide-able atoms).
var engineCases = []engineCase{
	{"titles", "", `select T from DB.Entry.Movie.Title T`, nil},
	{"template", "", `select {Movie: {Title: T}} from DB.Entry.Movie.Title T`, nil},
	{"allen", "", `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`, nil},
	{"big-ints", "", `select {Big: X} from DB._*.isint X where X > 65536 or not X = X`, nil},
	{"big-labels", "", `select {Big: %N} from DB._* X, X.%N Y where isint(%N) and %N > 65536`, nil},
	{"label-join", `{a: {x: 1}, b: {x: 2}, c: {y: 3}}`, `select {Shared: %L} from DB.a A, A.%L V, DB.b B, B.%L W`, nil},
	{"label-as-edge", "", `select {%L} from DB.Entry.Movie M, M.%L X`, nil},
	{"like", "", `select {%L} from DB._* X, X.%L Y where %L like "Cast%"`, nil},
	{"exists", "", `select {Title: T} from DB.Entry.Movie M, M.Title T where exists M.References`, nil},
	{"not-exists", "", `select {Title: T} from DB.Entry.Movie M, M.Title T where not exists M.References`, nil},
	{"exists-deep", "", `select {Title: T} from DB.Entry.Movie M, M.Title T where exists M.Cast._*."Allen"`, nil},
	{"two-casts", "", `select {Actor: A} from DB.Entry.Movie M, M.Cast.(isint|Credit.Actors)? A`, nil},
	{"two-casts-names", "", `select {Name: %N} from DB.Entry.Movie M, M.Cast.(isint)?.(Credit.Actors)? A, A.%N L where isstring(%N)`, nil},
	{"cross-ref", "", `select {RefTitle: T} from DB.Entry.Movie M, M.References.Movie.Title T`, nil},
	{"union-set", `{a: {v: 1}, b: {v: 1}}`, `select {Out: X} from DB.(a|b) X`, nil},
	{"cyclic", `#r{next: #r, tag: "loop"}`, `select X from DB.next X`, nil},
	{"empty", "", `select T from DB.Entry.Movie.Nonexistent T`, nil},
	{"typetest-tree", `{a: {v: 1}, b: {v: "s"}}`, `select {IntHolder: %L} from DB.%L X, X.v V where isint(V)`, nil},
	{"shared-node", `{a: #x{v: 1}, b: #x}`, `select X from DB._ X`, nil},
	{"pathvar", "", `select @P from DB.@P X where X = "Casablanca"`, nil},
	{"pathvar-struct", "", `select {Found: {At: @P}} from DB.@P X where X = "Allen"`, nil},
	{"pathlen", "", `select X from DB.@P X where pathlen(@P) = 2`, nil},
	{"pathvar-cycle", `#r{a: {b: #r, v: 1}}`, `select @P from DB.@P X where X = 1`, nil},
	{"seek-shape", "", `select X from DB._*.Title X`, nil},
	{"chain", "", `select X from DB.Entry.Movie.Title X`, nil},
	{"wildcard-all", "", `select X from DB._* X`, nil},
	{"or-cond", "", `select T from DB.Entry.Movie M, M.Title T where T = "Casablanca" or exists M.References`, nil},
	{"label-var-rebind", "", `select {%L: {%K}} from DB.Entry.%L M, M.%K X`, nil},
	// Repeated label variables inside an exists-path must join on equality
	// even when the variable is not bound in the from clause: only b has a
	// repeated label along a 2-step path.
	{"exists-labelvar-join", `{a: {p: {q: 1}}, b: {r: {r: 2}}}`, `select X from DB._ X where exists X.%L.%L`, nil},
	{"exists-labelvar-filter", "", `select {%L} from DB.Entry.%L M where exists M.Title`, nil},
	// Parameterized statements: the planned engine binds $values into plan
	// slots, the naive engine substitutes them into the AST — both must
	// agree byte-for-byte, like every other case.
	{"param-where", "", `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`,
		map[string]ssd.Label{"who": ssd.Str("Allen")}},
	{"param-step", "", `select X from DB.Entry.$kind.Title X`,
		map[string]ssd.Label{"kind": ssd.Sym("Movie")}},
	{"param-step-source", "", `select {%L} from DB.Entry.$kind M, M.%L X`,
		map[string]ssd.Label{"kind": ssd.Sym("TV-Show")}},
	{"param-exists", "", `select {Title: T} from DB.Entry.Movie M, M.Title T where exists M.$attr`,
		map[string]ssd.Label{"attr": ssd.Sym("References")}},
	{"param-both", "", `select T from DB.Entry.$kind M, M.Title T where T != $skip`,
		map[string]ssd.Label{"kind": ssd.Sym("Movie"), "skip": ssd.Str("Casablanca")}},
}

func caseGraph(t *testing.T, c engineCase) *ssd.Graph {
	t.Helper()
	if c.graph == "" {
		return workload.Fig1(false)
	}
	return ssd.MustParse(c.graph)
}

// evalPlanned plans q against g with the given planner inputs and runs it
// to its canonical result: the planned side of every engine cross-check.
func evalPlanned(q *Query, g ssd.GraphStore, po PlanOptions, params map[string]ssd.Label) (*ssd.Graph, error) {
	p, err := NewPlan(q, g, po)
	if err != nil {
		return nil, err
	}
	return p.EvalGraphCtx(nil, params)
}

func TestEnginesAgree(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) {
			g := caseGraph(t, c)
			q := MustParse(c.query)
			// The reference evaluator has no binding mechanism: parameters
			// are substituted into the AST first.
			sub, err := q.SubstParams(c.params)
			if err != nil {
				t.Fatalf("subst: %v", err)
			}
			want, err := EvalNaive(sub, g)
			if err != nil {
				t.Fatalf("naive: %v", err)
			}
			ix := index.BuildLabelIndex(g)
			guide := dataguide.MustBuild(g)
			variants := map[string]PlanOptions{
				"bare":        {},
				"index":       {Label: ix},
				"guide":       {Guide: guide},
				"index+guide": {Label: ix, Guide: guide},
			}
			for vn, po := range variants {
				got, err := evalPlanned(q, g, po, c.params)
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
		q := MustParse(src)
		want, err := EvalNaive(q, g)
		if err != nil {
			t.Fatalf("naive %q: %v", src, err)
		}
		got, err := evalPlanned(q, g, PlanOptions{Label: ix}, nil)
		if err != nil {
			t.Fatalf("planned %q: %v", src, err)
		}
		if !bisim.Equal(got, want) {
			t.Errorf("engines differ on %q", src)
		}
	}
}

func TestPlannedRowCap(t *testing.T) {
	g := workload.Fig1(false)
	q := MustParse(`select X from DB._* X`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rows := p.Rows(3); len(rows) != 3 {
		t.Errorf("row cap: %d rows, want 3", len(rows))
	}
}

func TestPlannedRowsBindAllVars(t *testing.T) {
	g := workload.Fig1(false)
	q := MustParse(`select T from DB.Entry.Movie M, M.Title T`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := p.Rows(0)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if _, ok := r.Trees["M"]; !ok {
			t.Error("M unbound in planned row")
		}
		if _, ok := r.Trees["T"]; !ok {
			t.Error("T unbound in planned row")
		}
	}
}
