// Package pathexpr implements the regular path expressions §3 of the paper
// calls for: "one would like to have something like regular expressions to
// constrain paths". Expressions combine label predicates (the atoms) with
// concatenation, alternation and repetition, and are evaluated over
// edge-labeled graphs by a product construction (nfa.go).
//
// Syntax (parse.go):
//
//	Entry.Movie.Title            concatenation of symbol atoms
//	Entry.(Movie|TV-Show)        alternation
//	Movie.(!Movie)*."Allen"      the paper's "path with no second Movie edge"
//	_*.isint                     any path to an integer edge
//	_*.(> 65536)                 "integers greater than 2^16" (§1.3)
//	_*.(like "act%")             "attribute names starting with act" (§1.3)
package pathexpr

import (
	"fmt"
	"strings"

	"repro/internal/ssd"
)

// Expr is a regular path expression AST node.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Atom matches a single edge whose label satisfies Pred.
type Atom struct{ Pred Pred }

// Seq matches the concatenation of its parts.
type Seq struct{ Parts []Expr }

// Alt matches any one of its alternatives.
type Alt struct{ Alts []Expr }

// Star matches zero or more repetitions of Sub.
type Star struct{ Sub Expr }

// Plus matches one or more repetitions of Sub.
type Plus struct{ Sub Expr }

// Opt matches zero or one occurrence of Sub.
type Opt struct{ Sub Expr }

func (Atom) isExpr() {}
func (Seq) isExpr()  {}
func (Alt) isExpr()  {}
func (Star) isExpr() {}
func (Plus) isExpr() {}
func (Opt) isExpr()  {}

func (a Atom) String() string { return a.Pred.String() }

func (s Seq) String() string {
	parts := make([]string, len(s.Parts))
	for i, p := range s.Parts {
		parts[i] = maybeParen(p, false)
	}
	return strings.Join(parts, ".")
}

func (a Alt) String() string {
	parts := make([]string, len(a.Alts))
	for i, p := range a.Alts {
		parts[i] = maybeParen(p, true)
	}
	return "(" + strings.Join(parts, "|") + ")"
}

func (s Star) String() string { return maybeParen(s.Sub, false) + "*" }
func (p Plus) String() string { return maybeParen(p.Sub, false) + "+" }
func (o Opt) String() string  { return maybeParen(o.Sub, false) + "?" }

func maybeParen(e Expr, inAlt bool) string {
	switch e.(type) {
	case Seq:
		if !inAlt {
			return "(" + e.String() + ")"
		}
	}
	return e.String()
}

// ---------------------------------------------------------------------------
// Predicates (the atoms' alphabet)

// Pred is a predicate on edge labels. The "self-describing" nature of the
// data (§2) is exactly that predicates can switch on the type of a label at
// query time.
type Pred interface {
	Match(l ssd.Label) bool
	String() string
}

// ExactPred matches labels equal to L (numeric overloading included).
type ExactPred struct{ L ssd.Label }

func (p ExactPred) Match(l ssd.Label) bool { return l.Equal(p.L) }
func (p ExactPred) String() string         { return p.L.String() }

// AnyPred matches every label; written `_`.
type AnyPred struct{}

func (AnyPred) Match(ssd.Label) bool { return true }
func (AnyPred) String() string       { return "_" }

// TypePred matches labels of one kind; written isint, isstring, issymbol,
// isfloat, isbool, isoid. IsData selects any base-data kind; written isdata.
type TypePred struct {
	Kind   ssd.Kind
	IsData bool
}

func (p TypePred) Match(l ssd.Label) bool {
	if p.IsData {
		return l.IsData()
	}
	return l.Kind() == p.Kind
}

func (p TypePred) String() string {
	if p.IsData {
		return "isdata"
	}
	return "is" + p.Kind.String()
}

// LikePred matches symbol or string labels against a SQL-style pattern where
// % matches any run of characters; written like "act%".
type LikePred struct{ Pattern string }

func (p LikePred) Match(l ssd.Label) bool {
	var s string
	switch l.Kind() {
	case ssd.KindSymbol:
		s, _ = l.Symbol()
	case ssd.KindString:
		s, _ = l.Text()
	default:
		return false
	}
	return likeMatch(p.Pattern, s)
}

func (p LikePred) String() string { return "like " + ssd.Str(p.Pattern).String() }

// likeMatch implements %-wildcard matching (greedy segments).
func likeMatch(pattern, s string) bool {
	segs := strings.Split(pattern, "%")
	if len(segs) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, segs[0]) {
		return false
	}
	s = s[len(segs[0]):]
	for _, seg := range segs[1 : len(segs)-1] {
		if seg == "" {
			continue
		}
		i := strings.Index(s, seg)
		if i < 0 {
			return false
		}
		s = s[i+len(seg):]
	}
	return strings.HasSuffix(s, segs[len(segs)-1])
}

// CmpOp is a comparison operator for CmpPred.
type CmpOp int

// Comparison operators.
const (
	OpLT CmpOp = iota
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
)

func (op CmpOp) String() string {
	return [...]string{"<", "<=", ">", ">=", "=", "!="}[op]
}

// Apply evaluates `a op b` with the language's comparison semantics:
// numerics compare by value across int/float; strings and symbols compare
// lexicographically within their kind; all other cross-kind comparisons are
// false (except !=, which is true when = is false).
func (op CmpOp) Apply(a, b ssd.Label) bool {
	switch op {
	case OpEQ:
		return a.Equal(b)
	case OpNE:
		return !a.Equal(b)
	}
	if !comparable(a, b) {
		return false
	}
	c := a.Compare(b)
	if a.Kind() != b.Kind() && a.Equal(b) {
		c = 0 // 1 and 1.0: the values tie, whatever Compare's kind tie-break says
	}
	switch op {
	case OpLT:
		return c < 0
	case OpLE:
		return c <= 0
	case OpGT:
		return c > 0
	default:
		return c >= 0
	}
}

func comparable(a, b ssd.Label) bool {
	if _, ok := a.Numeric(); ok {
		_, ok2 := b.Numeric()
		return ok2
	}
	return a.Kind() == b.Kind() && a.Kind() != ssd.KindOID
}

// CmpPred matches labels l with l ⟨Op⟩ Rhs; written e.g. `> 65536`.
type CmpPred struct {
	Op  CmpOp
	Rhs ssd.Label
}

func (p CmpPred) Match(l ssd.Label) bool { return p.Op.Apply(l, p.Rhs) }
func (p CmpPred) String() string         { return p.Op.String() + " " + p.Rhs.String() }

// ParamPred is a named query parameter in atom position; written `$name`.
// It is a placeholder: evaluating an automaton that still contains one
// matches nothing. BindParams substitutes actual label values before
// compilation — the statement layer calls it once per execution.
type ParamPred struct{ Name string }

func (p ParamPred) Match(ssd.Label) bool { return false }
func (p ParamPred) String() string       { return "$" + p.Name }

// NotPred negates a predicate; written `!p`.
type NotPred struct{ Sub Pred }

func (p NotPred) Match(l ssd.Label) bool { return !p.Sub.Match(l) }
func (p NotPred) String() string         { return "!" + p.Sub.String() }

// AndPred conjoins predicates; produced by schema pruning when intersecting
// automata, not by the surface syntax.
type AndPred struct{ A, B Pred }

func (p AndPred) Match(l ssd.Label) bool { return p.A.Match(l) && p.B.Match(l) }
func (p AndPred) String() string         { return "(" + p.A.String() + " & " + p.B.String() + ")" }

// ---------------------------------------------------------------------------
// Parameters

// Params returns the names of the $parameters occurring in e, in first-
// occurrence order (depth-first, left to right).
func Params(e Expr) []string {
	var names []string
	seen := map[string]bool{}
	var walkPred func(Pred)
	walkPred = func(p Pred) {
		switch t := p.(type) {
		case ParamPred:
			if !seen[t.Name] {
				seen[t.Name] = true
				names = append(names, t.Name)
			}
		case NotPred:
			walkPred(t.Sub)
		case AndPred:
			walkPred(t.A)
			walkPred(t.B)
		}
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch t := e.(type) {
		case Atom:
			walkPred(t.Pred)
		case Seq:
			for _, p := range t.Parts {
				walk(p)
			}
		case Alt:
			for _, a := range t.Alts {
				walk(a)
			}
		case Star:
			walk(t.Sub)
		case Plus:
			walk(t.Sub)
		case Opt:
			walk(t.Sub)
		}
	}
	walk(e)
	return names
}

// BindParams returns a copy of e with every $parameter replaced by an
// exact-label atom for its value. Unbound parameters are an error; unused
// values are ignored (the caller validates arity against Params).
func BindParams(e Expr, vals map[string]ssd.Label) (Expr, error) {
	var bindPred func(Pred) (Pred, error)
	bindPred = func(p Pred) (Pred, error) {
		switch t := p.(type) {
		case ParamPred:
			v, ok := vals[t.Name]
			if !ok {
				return nil, fmt.Errorf("pathexpr: parameter $%s not bound", t.Name)
			}
			return ExactPred{v}, nil
		case NotPred:
			sub, err := bindPred(t.Sub)
			if err != nil {
				return nil, err
			}
			return NotPred{sub}, nil
		case AndPred:
			a, err := bindPred(t.A)
			if err != nil {
				return nil, err
			}
			b, err := bindPred(t.B)
			if err != nil {
				return nil, err
			}
			return AndPred{a, b}, nil
		default:
			return p, nil
		}
	}
	var bind func(Expr) (Expr, error)
	bind = func(e Expr) (Expr, error) {
		switch t := e.(type) {
		case Atom:
			pr, err := bindPred(t.Pred)
			if err != nil {
				return nil, err
			}
			return Atom{pr}, nil
		case Seq:
			parts := make([]Expr, len(t.Parts))
			for i, p := range t.Parts {
				np, err := bind(p)
				if err != nil {
					return nil, err
				}
				parts[i] = np
			}
			return Seq{parts}, nil
		case Alt:
			alts := make([]Expr, len(t.Alts))
			for i, a := range t.Alts {
				na, err := bind(a)
				if err != nil {
					return nil, err
				}
				alts[i] = na
			}
			return Alt{alts}, nil
		case Star:
			sub, err := bind(t.Sub)
			if err != nil {
				return nil, err
			}
			return Star{sub}, nil
		case Plus:
			sub, err := bind(t.Sub)
			if err != nil {
				return nil, err
			}
			return Plus{sub}, nil
		case Opt:
			sub, err := bind(t.Sub)
			if err != nil {
				return nil, err
			}
			return Opt{sub}, nil
		default:
			return e, nil
		}
	}
	return bind(e)
}

// ---------------------------------------------------------------------------
// Convenience constructors

// Label returns an atom matching exactly l.
func Label(l ssd.Label) Expr { return Atom{ExactPred{l}} }

// Symbol returns an atom matching the symbol s.
func Symbol(s string) Expr { return Atom{ExactPred{ssd.Sym(s)}} }

// Any returns the `_` atom.
func Any() Expr { return Atom{AnyPred{}} }

// AnyStar returns `_*`, the arbitrary-path wildcard.
func AnyStar() Expr { return Star{Any()} }

// Path returns the concatenation of symbol atoms — the plain dotted paths of
// the SQL-like surface syntax (Entry.Movie.Title).
func Path(symbols ...string) Expr {
	parts := make([]Expr, len(symbols))
	for i, s := range symbols {
		parts[i] = Symbol(s)
	}
	return Seq{parts}
}
