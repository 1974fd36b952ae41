package pathexpr

import "repro/internal/ssd"

// syntax is the path-expression language's share of the scanner: no
// comments, the regex operators, comparison operators and `$` parameters.
var syntax = &ssd.Syntax{
	Prefix: "pathexpr",
	Punct:  ".|*+?()!<>=$",
	Ops:    []ssd.Tok{ssd.TokLE, ssd.TokGE, ssd.TokNE},
}

// Parse parses a regular path expression.
//
//	alt     := seq ('|' seq)*
//	seq     := postfix ('.' postfix)*
//	postfix := primary ('*' | '+' | '?')*
//	primary := '(' alt ')' | atom
//	atom    := '_' | '$' ident | '!' atom | cmp literal | 'like' string
//	         | 'isint' | 'isfloat' | 'isstring' | 'issymbol' | 'isbool'
//	         | 'isoid' | 'isdata'
//	         | ident | string | int | float | 'true' | 'false'
//	cmp     := '<' | '<=' | '>' | '>=' | '=' | '!='
//
// This package owns the grammar for every front-end: the query language
// parses each regex step of a from-path through ParsePostfix.
func Parse(src string) (Expr, error) {
	lx := ssd.NewScanner(syntax, src)
	e, err := parseAlt(lx)
	if err != nil {
		return nil, err
	}
	if lx.Tok != ssd.TokEOF {
		return nil, lx.Errorf("trailing input %q", lx.Text)
	}
	return e, nil
}

// MustParse is Parse but panics on error; for tests and examples.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

func parseAlt(lx *ssd.Scanner) (Expr, error) {
	first, err := parseSeq(lx)
	if err != nil {
		return nil, err
	}
	alts := []Expr{first}
	for lx.Tok == '|' {
		lx.Next()
		e, err := parseSeq(lx)
		if err != nil {
			return nil, err
		}
		alts = append(alts, e)
	}
	if len(alts) == 1 {
		return first, nil
	}
	return Alt{alts}, nil
}

func parseSeq(lx *ssd.Scanner) (Expr, error) {
	first, err := ParsePostfix(lx)
	if err != nil {
		return nil, err
	}
	parts := []Expr{first}
	for lx.Tok == '.' {
		lx.Next()
		e, err := ParsePostfix(lx)
		if err != nil {
			return nil, err
		}
		parts = append(parts, e)
	}
	if len(parts) == 1 {
		return first, nil
	}
	return Seq{parts}, nil
}

// ParsePostfix parses one postfix production — an atom or parenthesized
// group with its repetition operators — from the scanner's current token,
// leaving the scanner on the token after it. It is the entry point for
// languages that embed path steps in their own token stream; their Syntax
// must carry this language's punctuation and operators.
func ParsePostfix(lx *ssd.Scanner) (Expr, error) {
	var e Expr
	if lx.Tok == '(' {
		lx.Next()
		var err error
		if e, err = parseAlt(lx); err != nil {
			return nil, err
		}
		if lx.Tok != ')' {
			return nil, lx.Errorf("expected ')' in path")
		}
		lx.Next()
	} else {
		pred, err := parsePred(lx)
		if err != nil {
			return nil, err
		}
		e = Atom{pred}
	}
	for {
		switch lx.Tok {
		case '*':
			e = Star{e}
		case '+':
			e = Plus{e}
		case '?':
			e = Opt{e}
		default:
			return e, nil
		}
		lx.Next()
	}
}

var typePreds = map[string]Pred{
	"isint":    TypePred{Kind: ssd.KindInt},
	"isfloat":  TypePred{Kind: ssd.KindFloat},
	"isstring": TypePred{Kind: ssd.KindString},
	"issymbol": TypePred{Kind: ssd.KindSymbol},
	"isbool":   TypePred{Kind: ssd.KindBool},
	"isoid":    TypePred{Kind: ssd.KindOID},
	"isdata":   TypePred{IsData: true},
}

var cmpOps = map[ssd.Tok]CmpOp{
	'<': OpLT, ssd.TokLE: OpLE, '>': OpGT, ssd.TokGE: OpGE, '=': OpEQ, ssd.TokNE: OpNE,
}

func parsePred(lx *ssd.Scanner) (Pred, error) {
	if op, ok := cmpOps[lx.Tok]; ok {
		lx.Next()
		rhs, err := lx.Label()
		if err != nil {
			return nil, err
		}
		return CmpPred{Op: op, Rhs: rhs}, nil
	}
	switch lx.Tok {
	case '$':
		lx.Next()
		if lx.Tok != ssd.TokIdent {
			return nil, lx.Errorf("expected parameter name after $")
		}
		name := lx.Text
		lx.Next()
		return ParamPred{name}, nil
	case '!':
		lx.Next()
		sub, err := parsePred(lx)
		if err != nil {
			return nil, err
		}
		return NotPred{sub}, nil
	case ssd.TokIdent:
		if tp, ok := typePreds[lx.Text]; ok {
			lx.Next()
			return tp, nil
		}
		switch lx.Text {
		case "_":
			lx.Next()
			return AnyPred{}, nil
		case "like":
			lx.Next()
			if lx.Tok != ssd.TokString {
				return nil, lx.Errorf("like requires a string pattern")
			}
			pat := lx.Text
			lx.Next()
			return LikePred{pat}, nil
		}
	}
	l, err := lx.Label()
	if err != nil {
		return nil, err
	}
	return ExactPred{l}, nil
}
