package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/mutate"
	"repro/internal/pathexpr"
	"repro/internal/query"
	"repro/internal/ssd"
)

// literalReaders is every place a label literal can be written, each
// reduced to "text in, label out". All of them but the mutation script sit
// on ssd.Scanner.
var literalReaders = []struct {
	name string
	read func(text string) (ssd.Label, error)
}{
	{"ssd.ParseLabel", ssd.ParseLabel},
	{"ssd text edge", func(text string) (ssd.Label, error) {
		g, err := ssd.Parse("{" + text + ": {}}")
		if err != nil {
			return ssd.Label{}, err
		}
		return g.Out(g.Root())[0].Label, nil
	}},
	{"query where", func(text string) (ssd.Label, error) {
		q, err := query.Parse("select X from DB.a X where X = " + text)
		if err != nil {
			return ssd.Label{}, err
		}
		return q.Where.(query.Cmp).R.(query.LitTerm).L, nil
	}},
	{"query path atom", func(text string) (ssd.Label, error) {
		q, err := query.Parse("select X from DB." + text + " X")
		if err != nil {
			return ssd.Label{}, err
		}
		return exactLabel(q.From[0].Path[0].(*query.RegexStep).Expr)
	}},
	{"path statement", func(text string) (ssd.Label, error) {
		lang, body := SniffLang("path: " + text)
		if lang != LangPath {
			return ssd.Label{}, fmt.Errorf("sniffed %s", lang)
		}
		e, err := pathexpr.Parse(body)
		if err != nil {
			return ssd.Label{}, err
		}
		return exactLabel(e)
	}},
	{"datalog constant", func(text string) (ssd.Label, error) {
		prog, err := datalog.ParseProgram("p(" + text + ").")
		if err != nil {
			return ssd.Label{}, err
		}
		return prog.Rules[0].Head.Args[0].Const.Label, nil
	}},
	{"transform target", func(text string) (ssd.Label, error) {
		t, err := parseTransform("relabel a to " + text)
		if err != nil {
			return ssd.Label{}, err
		}
		return t.chain[0], nil
	}},
	{"mutation script", func(text string) (ssd.Label, error) {
		b, err := mutate.ParseScript("addedge 0 "+text+" 0", ssd.MustParse("{}"))
		if err != nil {
			return ssd.Label{}, err
		}
		return b.Recs()[0].Label, nil
	}},
}

func exactLabel(e pathexpr.Expr) (ssd.Label, error) {
	a, ok := e.(pathexpr.Atom)
	if !ok {
		return ssd.Label{}, fmt.Errorf("parsed as %T, not an atom", e)
	}
	ex, ok := a.Pred.(pathexpr.ExactPred)
	if !ok {
		return ssd.Label{}, fmt.Errorf("parsed as %T, not an exact label", a.Pred)
	}
	return ex.L, nil
}

// TestLabelStringReadsBackEverywhere: whatever Label.String() prints, every
// front-end reads back as the identical label. Before the shared scanner
// three of them refused "a\rb" and all of them refused "a\x00b".
func TestLabelStringReadsBackEverywhere(t *testing.T) {
	labels := []ssd.Label{
		ssd.Str(""), ssd.Str("plain"), ssd.Str("a\rb"), ssd.Str("z\u200bw"), ssd.Str("a\x00b"),
		ssd.Str("\a\b\f\n\t\v"), ssd.Str(`q"uote\slash`), ssd.Str("\U000e0001"), ssd.Str("bad\xffutf8"),
		ssd.Str("é raw, 日本"), ssd.Str("x:-y % -- //"),
		ssd.Int(0), ssd.Int(-5), ssd.Int(math.MinInt64), ssd.Int(math.MaxInt64),
		ssd.Float(2.5), ssd.Float(-2.5), ssd.Float(2), ssd.Float(1e21), ssd.Float(1.5e-7), ssd.Float(-3e300),
		ssd.Bool(true), ssd.Bool(false),
		ssd.Sym("a"), ssd.Sym("a-b"), ssd.Sym("x_1"), ssd.Sym("_x"), ssd.Sym("été"), ssd.Sym("naïve-2"), ssd.Sym("日本"),
		// Words strconv.ParseFloat reads as numbers. Lowercase, because
		// datalog reads a capitalised name as a variable.
		ssd.Sym("nan"), ssd.Sym("inf"), ssd.Sym("infinity"),
	}
	for _, l := range labels {
		text := l.String()
		for _, r := range literalReaders {
			got, err := r.read(text)
			if err != nil {
				t.Errorf("%s: %s: %v", r.name, text, err)
			} else if got != l {
				t.Errorf("%s: %s read back as %v (%s)", r.name, text, got, got.Kind())
			}
		}
	}
}

// TestMalformedInputSameOffsetEverywhere: a lexical error is one message at
// one byte offset, whichever language the text was in; only the prefix
// differs. The transform language counts offsets from the start of its
// command, like the others from the start of their text.
func TestMalformedInputSameOffsetEverywhere(t *testing.T) {
	frontEnds := []struct {
		prefix, before, after string
		parse                 func(string) error
	}{
		{"ssd", "{a: ", "}", func(s string) error { _, err := ssd.Parse(s); return err }},
		{"query", "select X from DB.a X where X = ", "", func(s string) error { _, err := query.Parse(s); return err }},
		{"pathexpr", "a.", "", func(s string) error { _, err := pathexpr.Parse(s); return err }},
		{"datalog", "p(X) :- q(X, ", ").", func(s string) error { _, err := datalog.ParseProgram(s); return err }},
		{"unql", "relabel ", " to x", func(s string) error { _, err := parseTransform(s); return err }},
	}
	cases := []struct {
		name, fragment string
		at             int // offset of the error inside fragment
		tail           string
	}{
		{"unterminated string", `"abc`, 0, "unterminated string"},
		{"bad escape", `"ab\qc"`, 3, "bad string escape"},
		{"octal escape", `"\101"`, 1, "bad string escape"},
		{"stray byte", `^`, 0, `unexpected character '^'`},
		{"lone minus", `- 1`, 0, "malformed number"},
	}
	for _, fe := range frontEnds {
		for _, c := range cases {
			err := fe.parse(fe.before + c.fragment + fe.after)
			want := fmt.Sprintf("%s: offset %d: %s", fe.prefix, len(fe.before)+c.at, c.tail)
			if err == nil || err.Error() != want {
				t.Errorf("%s, %s: got %v, want %s", fe.prefix, c.name, err, want)
			}
		}
	}
}

// TestOneNumberRule: the four front-ends split number-like text the same
// way — a digit must follow '.', an exponent needs digits.
func TestOneNumberRule(t *testing.T) {
	// `3.Title` is int, dot, ident: a two-step path, not a float.
	e, err := pathexpr.Parse("3.Title")
	if _, ok := e.(pathexpr.Seq); err != nil || !ok {
		t.Errorf("pathexpr.Parse(3.Title) = %v, %v; want a two-step path", e, err)
	}
	q, err := query.Parse("select X from DB.3.Title X")
	if err != nil || len(q.From[0].Path) != 2 {
		t.Errorf("query path 3.Title: %v, %v; want two steps", q, err)
	}
	// `1eX` is the int 1, then the identifier eX.
	if _, err := pathexpr.Parse("1eX"); err == nil || err.Error() != `pathexpr: offset 1: trailing input "eX"` {
		t.Errorf("pathexpr.Parse(1eX) = %v; want trailing input eX at offset 1", err)
	}
	// `p(3).` ends a rule and datalog reads exponents like everyone else.
	prog, err := datalog.ParseProgram("p(3). p(1e+21). p(-2.5e-3).")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []ssd.Label{ssd.Int(3), ssd.Float(1e21), ssd.Float(-2.5e-3)} {
		if got := prog.Rules[i].Head.Args[0].Const.Label; got != want {
			t.Errorf("datalog fact %d = %v, want %v", i, got, want)
		}
	}
	// A trailing '.' is no longer part of an ssd text number.
	if _, err := ssd.Parse("{a: 3.}"); err == nil || !strings.Contains(err.Error(), "offset 5") {
		t.Errorf("ssd.Parse({a: 3.}) = %v; want an error at the dot", err)
	}
}
