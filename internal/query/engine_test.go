package query

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ssd"
	"repro/internal/workload"
)

// The engine cross-check fixtures. Every execution mode must answer each
// case alike: TestEngineGolden pins the answers, TestEnginesAgree
// (oracle_test.go) compares with the reference evaluator, and
// internal/core's FuzzEngines seeds its corpus from the same file.

// EngineCase is one fixture of testdata/engine_cases.json: a graph in the
// text syntax ("" for the Figure 1 fixture), a query, and a value for each
// $parameter of the query. The cases mirror every evaluable query in
// query_test.go and pathvar_test.go, plus planner-specific shapes
// (index-seek, backward-chain, guide-able atoms), label-variable joins
// inside exists-paths, and parameterized statements — which the planned
// engine binds into plan slots and the reference evaluator substitutes
// into the AST.
type EngineCase struct {
	Name, Graph, Query string
	Params             map[string]ssd.Label
}

var engineCases = loadEngineCases()

func loadEngineCases() []EngineCase {
	data, err := os.ReadFile(filepath.Join("testdata", "engine_cases.json"))
	if err != nil {
		panic(err)
	}
	var raw []struct {
		Name, Graph, Query string
		Params             map[string]string // name -> label text
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		panic(err)
	}
	cases := make([]EngineCase, len(raw))
	for i, r := range raw {
		cases[i] = EngineCase{Name: r.Name, Graph: r.Graph, Query: r.Query}
		for name, text := range r.Params {
			l, err := ssd.ParseLabel(text)
			if err != nil {
				panic(err)
			}
			if cases[i].Params == nil {
				cases[i].Params = map[string]ssd.Label{}
			}
			cases[i].Params[name] = l
		}
	}
	return cases
}

func caseGraph(t *testing.T, c EngineCase) *ssd.Graph {
	t.Helper()
	if c.Graph == "" {
		return workload.Fig1(false)
	}
	return ssd.MustParse(c.Graph)
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

// drainRows runs a parameter-free plan serially and materializes at most
// maxRows binding rows (all of them when maxRows is 0).
func drainRows(t *testing.T, p *Plan, maxRows int) []Env {
	t.Helper()
	cur, err := p.Cursor(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var rows []Env
	for (maxRows == 0 || len(rows) < maxRows) && cur.Next() {
		rows = append(rows, cur.Env())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestPlannedRowCap(t *testing.T) {
	g := workload.Fig1(false)
	q := MustParse(`select X from DB._* X`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainRows(t, p, 3); len(rows) != 3 {
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
	rows := drainRows(t, p, 0)
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
