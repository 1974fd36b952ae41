package datalog

import (
	"fmt"
	"unicode"
	"unicode/utf8"

	"repro/internal/ssd"
)

// ParseProgram parses datalog rules. Syntax:
//
//	rule    := atom (':-' literal (',' literal)*)? '.'
//	literal := 'not' atom | atom
//	atom    := ident '(' term (',' term)* ')'
//	term    := Variable | '_' | 'root' | symbol | "string" | number | bool
//
// Variables start with an upper-case letter; `_` is a fresh anonymous
// variable per occurrence; `root` denotes the graph root node; lower-case
// identifiers are symbol-label constants, and capitalized symbols must be
// quoted with single quotes ('Title', 'Movie') to distinguish them from
// variables. Comments run from % to newline.
func ParseProgram(src string) (*Program, error) {
	p := &dlParser{lex: ssd.NewScanner(syntax, src)}
	prog := &Program{}
	for p.lex.Tok != ssd.TokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	return prog, nil
}

// MustParseProgram is ParseProgram but panics on error.
func MustParseProgram(src string) *Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

// syntax is datalog's share of the scanner: % comments, `:-`, the rule
// punctuation and 'Quoted' symbols.
var syntax = &ssd.Syntax{
	Prefix:  "datalog",
	Comment: "%",
	Punct:   "(),.",
	Ops:     []ssd.Tok{ssd.TokImplies},
	Quoted:  true,
}

type dlParser struct {
	lex   *ssd.Scanner
	fresh int // anonymous variable counter
}

func (p *dlParser) parseRule() (Rule, error) {
	head, err := p.parseAtom()
	if err != nil {
		return Rule{}, err
	}
	r := Rule{Head: head}
	lx := p.lex
	if lx.Tok == ssd.TokImplies {
		lx.Next()
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return Rule{}, err
			}
			r.Body = append(r.Body, lit)
			if lx.Tok != ',' {
				break
			}
			lx.Next()
		}
	}
	if lx.Tok != '.' {
		return Rule{}, lx.Errorf("expected '.' to end rule")
	}
	lx.Next()
	return r, nil
}

// isVar reports whether an identifier is a variable: it starts upper-case.
func isVar(ident string) bool {
	r, _ := utf8.DecodeRuneInString(ident)
	return unicode.IsUpper(r)
}

func (p *dlParser) parseLiteral() (Literal, error) {
	lx := p.lex
	neg := false
	if lx.Tok == ssd.TokIdent && lx.Text == "not" {
		neg = true
		lx.Next()
	}
	a, err := p.parseAtom()
	if err != nil {
		return Literal{}, err
	}
	return Literal{Atom: a, Negated: neg}, nil
}

func (p *dlParser) parseAtom() (Atom, error) {
	lx := p.lex
	if lx.Tok != ssd.TokIdent || isVar(lx.Text) || lx.Text == "_" {
		return Atom{}, lx.Errorf("expected predicate name")
	}
	a := Atom{Pred: lx.Text}
	lx.Next()
	if lx.Tok != '(' {
		return Atom{}, lx.Errorf("expected '(' after %s", a.Pred)
	}
	lx.Next()
	for {
		t, err := p.parseTerm()
		if err != nil {
			return Atom{}, err
		}
		a.Args = append(a.Args, t)
		if lx.Tok != ',' {
			break
		}
		lx.Next()
	}
	if lx.Tok != ')' {
		return Atom{}, lx.Errorf("expected ')'")
	}
	lx.Next()
	return a, nil
}

func (p *dlParser) parseTerm() (Term, error) {
	lx := p.lex
	if lx.Tok == ssd.TokIdent {
		text := lx.Text
		switch {
		case text == "_":
			p.fresh++
			lx.Next()
			return Term{Var: fmt.Sprintf("_anon%d", p.fresh)}, nil
		case isVar(text):
			lx.Next()
			return Term{Var: text}, nil
		case text == "root":
			lx.Next()
			return Term{Const: Value{IsNode: true, Node: rootSentinel}}, nil
		}
	}
	l, err := lx.Label()
	if err != nil {
		return Term{}, err
	}
	return Term{Const: LabelValue(l)}, nil
}

// rootSentinel marks the `root` constant before the engine substitutes the
// actual root node of the evaluated graph.
const rootSentinel = ssd.NodeID(-2)
