package query

import (
	"strings"
	"testing"

	"repro/internal/bisim"
	"repro/internal/ssd"
)

// Tests for the third variable kind of §3: path variables.

func TestPathVarTemplate(t *testing.T) {
	g := db(t)
	// Re-materialize the path to Casablanca as a chain of edges.
	res := run(t, g, `select @P from DB.@P X where X = "Casablanca"`)
	want := ssd.MustParse(`{Entry: {Movie: {Title: {}}}}`)
	if !bisim.Equal(res, want) {
		t.Errorf("got %s", ssd.FormatRoot(res))
	}
}

func TestPathVarInStructTemplate(t *testing.T) {
	g := db(t)
	res := run(t, g, `
		select {Found: {At: @P}}
		from DB.@P X
		where X = "Allen"`)
	// Two witnesses: via Cast.Credit.Actors and via Director.
	if res.NumEdges() == 0 {
		t.Fatal("no results")
	}
	text := ssd.FormatRoot(res)
	if !strings.Contains(text, "Director") || !strings.Contains(text, "Actors") {
		t.Errorf("expected both witness paths in %s", text)
	}
}

func TestPathVarUnbound(t *testing.T) {
	for _, src := range []string{
		`select @Q from DB.a X`,
		`select X from DB.a X where pathlen(@Q) = 1`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail on unbound path variable", src)
		}
	}
}

func TestPathVarPrintRoundTrip(t *testing.T) {
	q := MustParse(`select {At: @P} from DB.@P X where pathlen(@P) < 3`)
	printed := q.String()
	if _, err := Parse(printed); err != nil {
		t.Fatalf("re-parse of %q: %v", printed, err)
	}
}
