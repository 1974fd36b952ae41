package ssd

import (
	"strconv"
	"strings"
	"testing"
)

// fuzzSyntaxes covers what the four front-ends ask of the scanner: each
// comment introducer, and one syntax with every punctuation byte, two-byte
// operator and quoted symbols switched on.
var fuzzSyntaxes = []*Syntax{
	textSyntax,
	{Prefix: "q", Comment: "--", Punct: "{}():,.%@$|*+?!<>=", Ops: []Tok{TokLE, TokGE, TokNE}},
	{Prefix: "d", Comment: "%", Punct: "(),.", Ops: []Tok{TokImplies}, Quoted: true},
	{Prefix: "all", Punct: "{}():,.%@$|*+?!<>=#&", Ops: []Tok{TokLE, TokGE, TokNE, TokImplies}, Quoted: true},
}

// FuzzScanner: scanning never panics, every token advances, offsets stay in
// bounds, and a scanned string's strconv.Quote scans back to the same text.
// The seeds run as a plain test.
func FuzzScanner(f *testing.F) {
	for _, seed := range []string{
		// golden queries (internal/query engine_test.go)
		`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`,
		`select {Big: %N} from DB._* X, X.%N Y where isint(%N) and %N > 65536`,
		`select {Name: %N} from DB.Entry.Movie M, M.Cast.(isint)?.(Credit.Actors)? A, A.%N L where isstring(%N)`,
		`select {Found: {At: @P}} from DB.@P X where X = "Allen" -- comment`,
		`select X from DB.@P X where pathlen(@P) <= 2 or X != -1.5e-3`,
		// ssdload's four statement texts
		`select {T: T} from DB.Entry.TV-Show S, S.Title T, S.Episode E where E > $lo`,
		`path: Entry.Movie.References.Movie.Director._`,
		`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`,
		`select {T: T} from DB._*.Title T where T = $t`,
		// an ssdload insScript body
		"addnode; addnode\naddedge 0 Entry $0\naddedge $2 \"ins 7 \\\"q\\\"\" $3\naddedge $4 1 $5\n",
		// datalog, ssd text, and the edges of each token class
		"reach(X) :- root(X). % c\nreach(Y) :- reach(X), edge(X, 'Title', Y), not p(_, 3).",
		"#r{next: #r, &o7{a: 1.2e6}, s: \"a\\rb\\x00\\u200b\\U000e0001\"} // c",
		`"unterminated`, `"bad \q"`, `"\101"`, `-`, `--`, `3.`, `1e`, `1e+`, `_`, `_a-b`, `'open`, "été\xff^",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, syn := range fuzzSyntaxes {
			s := NewScanner(syn, src)
			for prev := -1; s.Tok != TokEOF && s.Tok != TokError; s.Next() {
				if s.Pos <= prev || s.end <= s.Pos || s.end > len(src) {
					t.Fatalf("%s: token %d %q at [%d,%d) after offset %d in %q", syn.Prefix, s.Tok, s.Text, s.Pos, s.end, prev, src)
				}
				prev = s.Pos
				if s.Tok == TokString {
					back := NewScanner(syn, strconv.Quote(s.Text))
					if back.Tok != TokString || back.Text != s.Text {
						t.Fatalf("%s: %q quoted scans back as %d %q", syn.Prefix, s.Text, back.Tok, back.Text)
					}
				}
			}
			if s.Pos < 0 || s.Pos > len(src) {
				t.Fatalf("%s: final offset %d out of [0,%d]", syn.Prefix, s.Pos, len(src))
			}
			if err := s.Errorf("later"); s.Tok == TokError && strings.HasSuffix(err.Error(), "later") {
				t.Fatalf("%s: scan error in %q is not sticky: %v", syn.Prefix, src, err)
			}
		}
	})
}
