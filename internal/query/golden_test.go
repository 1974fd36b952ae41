package query

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/ssd"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/engine_cases.golden from the engine's current output")

var actualCount = regexp.MustCompile(` actual=\d+`)

// TestEngineGolden pins, for every engineCases entry under every planner
// input, the plan (atom order, access paths, estimates), the per-atom row
// counts ExplainAnalyze observes, and the canonical result text. A change
// that must not alter what the engine plans or answers runs this unchanged;
// a deliberate change regenerates the file with -update and shows up as a
// reviewable diff.
func TestEngineGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range engineCases {
		g := caseGraph(t, c)
		q := MustParse(c.query)
		ix := index.BuildLabelIndex(g)
		guide := dataguide.MustBuild(g)
		st := stats.Build(g)
		for _, v := range []struct {
			name string
			po   PlanOptions
		}{
			{"bare", PlanOptions{}},
			{"index", PlanOptions{Label: ix}},
			{"guide", PlanOptions{Guide: guide}},
			{"index+guide", PlanOptions{Label: ix, Guide: guide}},
			{"stats", PlanOptions{Label: ix, Stats: st}},
		} {
			p, err := NewPlan(q, g, v.po)
			if err != nil {
				t.Fatalf("%s/%s: plan: %v", c.name, v.name, err)
			}
			analyzed, err := p.ExplainAnalyze(nil, c.params)
			if err != nil {
				t.Fatalf("%s/%s: analyze: %v", c.name, v.name, err)
			}
			// The analyzed view is the plain plan plus one actual= count
			// per atom, so recording it pins both.
			if plain := actualCount.ReplaceAllString(analyzed, ""); plain != p.Explain() {
				t.Errorf("%s/%s: ExplainAnalyze without counts differs from Explain:\n%s\nvs\n%s", c.name, v.name, plain, p.Explain())
			}
			res, err := p.EvalGraphCtx(nil, c.params)
			if err != nil {
				t.Fatalf("%s/%s: eval: %v", c.name, v.name, err)
			}
			fmt.Fprintf(&out, "== %s / %s\n%s\n%s\n%s\n", c.name, v.name, c.query, analyzed, ssd.FormatRoot(res))
		}
	}
	path := filepath.Join("testdata", "engine_cases.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("engine output differs from %s at line %d:\n got: %s\nwant: %s\n(regenerate with -update only for a deliberate change)", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("engine output differs from %s in length: %d vs %d lines", path, len(gl), len(wl))
	}
}
