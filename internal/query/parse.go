package query

import (
	"fmt"
	"strings"

	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

// qSyntax is the query language's share of the scanner: `--` comments and
// the punctuation of templates, conditions and — because from-paths embed
// them — path expressions.
var qSyntax = &ssd.Syntax{
	Prefix:  "query",
	Comment: "--",
	Punct:   "{}():,.%@$|*+?!<>=",
	Ops:     []ssd.Tok{ssd.TokLE, ssd.TokGE, ssd.TokNE},
}

// Keywords are recognized case-insensitively so `SELECT` and `select` both
// work; they are reserved and cannot be variable names. Neither can `_`,
// the path wildcard.
var qReserved = map[string]bool{
	"select": true, "from": true, "where": true,
	"and": true, "or": true, "not": true, "exists": true, "like": true, "_": true,
}

var qCmpOps = map[ssd.Tok]pathexpr.CmpOp{
	'<': pathexpr.OpLT, ssd.TokLE: pathexpr.OpLE, '>': pathexpr.OpGT,
	ssd.TokGE: pathexpr.OpGE, '=': pathexpr.OpEQ, ssd.TokNE: pathexpr.OpNE,
}

// Parse parses a select-from-where query and statically validates variable
// scoping: binding sources must be DB or an earlier variable, variable names
// must be unique and non-reserved, and variables used in select/where must
// be bound in from.
func Parse(src string) (*Query, error) {
	p := &qParser{lex: ssd.NewScanner(qSyntax, src)}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := resolve(q); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse but panics on error; for tests and examples.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type qParser struct {
	lex *ssd.Scanner
}

// keyword reports whether the current token is the given keyword.
func (p *qParser) keyword(kw string) bool {
	return p.lex.Tok == ssd.TokIdent && strings.EqualFold(p.lex.Text, kw)
}

// sigilName consumes a %, @ or $ sigil and the identifier after it.
func (p *qParser) sigilName(what string) (string, error) {
	lx := p.lex
	sigil := lx.Text
	lx.Next()
	if lx.Tok != ssd.TokIdent {
		return "", lx.Errorf("expected %s name after %s", what, sigil)
	}
	name := lx.Text
	lx.Next()
	return name, nil
}

// expect consumes the punctuation token tok.
func (p *qParser) expect(tok ssd.Tok, where string) error {
	if p.lex.Tok != tok {
		return p.lex.Errorf("expected '%c' %s", rune(tok), where)
	}
	p.lex.Next()
	return nil
}

func (p *qParser) parseQuery() (*Query, error) {
	lx := p.lex
	if !p.keyword("select") {
		return nil, lx.Errorf("expected 'select', got %q", lx.Text)
	}
	lx.Next()
	sel, err := p.parseTemplate()
	if err != nil {
		return nil, err
	}
	if !p.keyword("from") {
		return nil, lx.Errorf("expected 'from'")
	}
	lx.Next()
	var from []Binding
	for {
		b, err := p.parseBinding()
		if err != nil {
			return nil, err
		}
		from = append(from, b)
		if lx.Tok != ',' {
			break
		}
		lx.Next()
	}
	q := &Query{Select: sel, From: from}
	if p.keyword("where") {
		lx.Next()
		if q.Where, err = p.parseOr(); err != nil {
			return nil, err
		}
	}
	if lx.Tok != ssd.TokEOF {
		return nil, lx.Errorf("trailing input %q", lx.Text)
	}
	return q, nil
}

// ---------------------------------------------------------------------------
// Templates

// identTemplate is a provisional template for a bare identifier; resolve()
// rewrites it to VarRef (if bound) or LitTree (symbol literal).
type identTemplate struct{ name string }

func (identTemplate) isTemplate() {}

func (p *qParser) parseTemplate() (Template, error) {
	lx := p.lex
	switch lx.Tok {
	case '%':
		name, err := p.sigilName("label variable")
		return LabelTree{name}, err
	case '@':
		name, err := p.sigilName("path variable")
		return PathTree{name}, err
	case '{':
		lx.Next()
		var fields []Field
		if lx.Tok == '}' {
			lx.Next()
			return Struct{}, nil
		}
		for {
			le, err := p.parseLabelExpr()
			if err != nil {
				return nil, err
			}
			var val Template = Struct{}
			if lx.Tok == ':' {
				lx.Next()
				val, err = p.parseTemplate()
				if err != nil {
					return nil, err
				}
			}
			fields = append(fields, Field{Label: le, Value: val})
			if lx.Tok == ',' {
				lx.Next()
				continue
			}
			if lx.Tok != '}' {
				return nil, lx.Errorf("expected ',' or '}' in template")
			}
			lx.Next()
			return Struct{Fields: fields}, nil
		}
	case ssd.TokIdent:
		if qReserved[lx.Text] {
			return nil, lx.Errorf("unexpected reserved word %q in template", lx.Text)
		}
		if name := lx.Text; name != "true" && name != "false" {
			lx.Next()
			return identTemplate{name}, nil
		}
	}
	// Everything else, true and false included, is a literal or an error.
	l, err := lx.Label()
	if err != nil {
		return nil, err
	}
	return LitTree{l}, nil
}

func (p *qParser) parseLabelExpr() (LabelExpr, error) {
	if p.lex.Tok == '%' {
		name, err := p.sigilName("label variable")
		return LabelVarRef{name}, err
	}
	l, err := p.lex.Label()
	if err != nil {
		return nil, err
	}
	return LitLabel{l}, nil
}

// ---------------------------------------------------------------------------
// From bindings and paths

func (p *qParser) parseBinding() (Binding, error) {
	lx := p.lex
	if lx.Tok != ssd.TokIdent {
		return Binding{}, lx.Errorf("expected binding source")
	}
	source := lx.Text
	lx.Next()
	steps, err := p.parsePathSteps()
	if err != nil {
		return Binding{}, err
	}
	if lx.Tok != ssd.TokIdent || qReserved[lx.Text] {
		return Binding{}, lx.Errorf("expected variable name after path")
	}
	v := lx.Text
	lx.Next()
	return Binding{Source: source, Path: steps, Var: v}, nil
}

// parsePathSteps parses zero or more '.'-prefixed path steps. A step is a
// label variable, a path variable, a $parameter, or one postfix production
// of the path-expression grammar, which pathexpr parses off this scanner.
func (p *qParser) parsePathSteps() ([]PathStep, error) {
	lx := p.lex
	var steps []PathStep
	for lx.Tok == '.' {
		lx.Next()
		var step PathStep
		var err error
		switch lx.Tok {
		case '%':
			var name string
			name, err = p.sigilName("label variable")
			step = LabelVarStep{name}
		case '@':
			var name string
			name, err = p.sigilName("path variable")
			step = PathVarStep{name}
		case '$':
			var name string
			name, err = p.sigilName("parameter")
			step = ParamStep{name}
		default:
			var e pathexpr.Expr
			if e, err = pathexpr.ParsePostfix(lx); err == nil {
				// The planner binds parameters to whole steps only.
				if ps := pathexpr.Params(e); len(ps) > 0 {
					err = fmt.Errorf("query: parameter $%s inside a path expression; a parameter must be a whole path step", ps[0])
				}
			}
			step = &RegexStep{Expr: e}
		}
		if err != nil {
			return nil, err
		}
		steps = append(steps, step)
	}
	return steps, nil
}

// ---------------------------------------------------------------------------
// Where conditions

func (p *qParser) parseOr() (Cond, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		p.lex.Next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Or{l, r}
	}
	return l, nil
}

func (p *qParser) parseAnd() (Cond, error) {
	l, err := p.parseUnaryCond()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		p.lex.Next()
		r, err := p.parseUnaryCond()
		if err != nil {
			return nil, err
		}
		l = And{l, r}
	}
	return l, nil
}

func (p *qParser) parseUnaryCond() (Cond, error) {
	lx := p.lex
	switch {
	case p.keyword("not"):
		lx.Next()
		sub, err := p.parseUnaryCond()
		if err != nil {
			return nil, err
		}
		return Not{sub}, nil
	case lx.Tok == '(':
		lx.Next()
		c, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		return c, p.expect(')', "in condition")
	case p.keyword("exists"):
		lx.Next()
		if lx.Tok != ssd.TokIdent || qReserved[lx.Text] {
			return nil, lx.Errorf("exists requires a variable")
		}
		source := lx.Text
		lx.Next()
		steps, err := p.parsePathSteps()
		if err != nil {
			return nil, err
		}
		return Exists{Source: source, Path: steps}, nil
	default:
		return p.parsePrimaryCond()
	}
}

// typeTest returns the type predicate an identifier names (isint, ...).
// The names belong to the path grammar, so pathexpr is asked.
func typeTest(name string) (pathexpr.Pred, bool) {
	if !strings.HasPrefix(name, "is") {
		return nil, false
	}
	e, _ := pathexpr.Parse(name)
	atom, _ := e.(pathexpr.Atom)
	tp, ok := atom.Pred.(pathexpr.TypePred)
	return tp, ok
}

func (p *qParser) parsePrimaryCond() (Cond, error) {
	lx := p.lex
	// Type tests look like isstring(T).
	if lx.Tok == ssd.TokIdent {
		if tp, ok := typeTest(lx.Text); ok {
			lx.Next()
			if err := p.expect('(', "after type test"); err != nil {
				return nil, err
			}
			term, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			return TypeTest{Pred: tp, T: term}, p.expect(')', "after type test")
		}
	}
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	if p.keyword("like") {
		lx.Next()
		if lx.Tok != ssd.TokString {
			return nil, lx.Errorf("like requires a string pattern")
		}
		pat := lx.Text
		lx.Next()
		return LikeCond{T: l, Pattern: pat}, nil
	}
	op, ok := qCmpOps[lx.Tok]
	if !ok {
		return nil, lx.Errorf("expected comparison operator")
	}
	lx.Next()
	r, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	return Cmp{Op: op, L: l, R: r}, nil
}

func (p *qParser) parseTerm() (Term, error) {
	lx := p.lex
	switch lx.Tok {
	case '%':
		name, err := p.sigilName("label variable")
		return LabelTerm{name}, err
	case '$':
		name, err := p.sigilName("parameter")
		return ParamTerm{name}, err
	case ssd.TokIdent:
		if qReserved[lx.Text] {
			return nil, lx.Errorf("unexpected reserved word %q in term", lx.Text)
		}
		name := lx.Text
		switch name {
		case "true", "false":
		case "pathlen":
			lx.Next()
			if err := p.expect('(', "after pathlen"); err != nil {
				return nil, err
			}
			if lx.Tok != '@' {
				return nil, lx.Errorf("pathlen takes a @path variable")
			}
			pv, err := p.sigilName("path variable")
			if err != nil {
				return nil, err
			}
			return PathLenTerm{pv}, p.expect(')', "after pathlen")
		default:
			// Resolution to VarTerm vs symbol literal happens in resolve().
			lx.Next()
			return VarTerm{name}, nil
		}
	}
	l, err := lx.Label()
	if err != nil {
		return nil, err
	}
	return LitTerm{l}, nil
}

// ---------------------------------------------------------------------------
// Static resolution and validation

func resolve(q *Query) error {
	treeVars := map[string]bool{}
	labelVars := map[string]bool{}
	pathVars := map[string]bool{}
	seenParam := map[string]bool{}
	addParam := func(name string) {
		if !seenParam[name] {
			seenParam[name] = true
			q.Params = append(q.Params, name)
		}
	}
	for i, b := range q.From {
		if b.Source != "DB" && !treeVars[b.Source] {
			return fmt.Errorf("query: binding %d: source %q is neither DB nor an earlier variable", i+1, b.Source)
		}
		if treeVars[b.Var] || b.Var == "DB" {
			return fmt.Errorf("query: duplicate variable %q", b.Var)
		}
		for _, st := range b.Path {
			switch t := st.(type) {
			case LabelVarStep:
				labelVars[t.Name] = true
			case PathVarStep:
				pathVars[t.Name] = true
			case ParamStep:
				addParam(t.Name)
			}
		}
		treeVars[b.Var] = true
	}
	sc := scopes{trees: treeVars, labels: labelVars, paths: pathVars}
	var err error
	q.Select = resolveTemplate(q.Select, sc, &err)
	if err != nil {
		return err
	}
	if q.Where != nil {
		q.Where = resolveCond(q.Where, sc, &err)
		if err != nil {
			return err
		}
		collectCondParams(q.Where, addParam)
	}
	return nil
}

// collectCondParams registers $parameters appearing in where conditions
// (terms and exists-paths), in syntactic order.
func collectCondParams(c Cond, add func(string)) {
	addTerm := func(t Term) {
		if pt, ok := t.(ParamTerm); ok {
			add(pt.Name)
		}
	}
	switch t := c.(type) {
	case And:
		collectCondParams(t.L, add)
		collectCondParams(t.R, add)
	case Or:
		collectCondParams(t.L, add)
		collectCondParams(t.R, add)
	case Not:
		collectCondParams(t.Sub, add)
	case Cmp:
		addTerm(t.L)
		addTerm(t.R)
	case TypeTest:
		addTerm(t.T)
	case LikeCond:
		addTerm(t.T)
	case Exists:
		for _, st := range t.Path {
			if ps, ok := st.(ParamStep); ok {
				add(ps.Name)
			}
		}
	}
}

// scopes carries the variable sets of a query during resolution.
type scopes struct {
	trees, labels, paths map[string]bool
}

func resolveTemplate(t Template, sc scopes, err *error) Template {
	switch tt := t.(type) {
	case identTemplate:
		if sc.trees[tt.name] {
			return VarRef{tt.name}
		}
		return LitTree{ssd.Sym(tt.name)}
	case LabelTree:
		if !sc.labels[tt.Name] {
			setErr(err, fmt.Errorf("query: label variable %%%s not bound in from clause", tt.Name))
		}
		return tt
	case PathTree:
		if !sc.paths[tt.Name] {
			setErr(err, fmt.Errorf("query: path variable @%s not bound in from clause", tt.Name))
		}
		return tt
	case Struct:
		for i, f := range tt.Fields {
			if lv, ok := f.Label.(LabelVarRef); ok && !sc.labels[lv.Name] {
				setErr(err, fmt.Errorf("query: label variable %%%s not bound in from clause", lv.Name))
			}
			tt.Fields[i].Value = resolveTemplate(f.Value, sc, err)
		}
		return tt
	default:
		return t
	}
}

func resolveCond(c Cond, sc scopes, err *error) Cond {
	switch t := c.(type) {
	case And:
		t.L = resolveCond(t.L, sc, err)
		t.R = resolveCond(t.R, sc, err)
		return t
	case Or:
		t.L = resolveCond(t.L, sc, err)
		t.R = resolveCond(t.R, sc, err)
		return t
	case Not:
		t.Sub = resolveCond(t.Sub, sc, err)
		return t
	case Cmp:
		t.L = resolveTerm(t.L, sc, err)
		t.R = resolveTerm(t.R, sc, err)
		return t
	case TypeTest:
		t.T = resolveTerm(t.T, sc, err)
		return t
	case LikeCond:
		t.T = resolveTerm(t.T, sc, err)
		return t
	case Exists:
		if !sc.trees[t.Source] {
			setErr(err, fmt.Errorf("query: exists source %q not bound", t.Source))
		}
		return t
	default:
		return c
	}
}

func resolveTerm(t Term, sc scopes, err *error) Term {
	switch tt := t.(type) {
	case VarTerm:
		if sc.trees[tt.Name] {
			return tt
		}
		// Unbound identifier: a symbol literal.
		return LitTerm{ssd.Sym(tt.Name)}
	case LabelTerm:
		if !sc.labels[tt.Name] {
			setErr(err, fmt.Errorf("query: label variable %%%s not bound in from clause", tt.Name))
		}
		return tt
	case PathLenTerm:
		if !sc.paths[tt.Name] {
			setErr(err, fmt.Errorf("query: path variable @%s not bound in from clause", tt.Name))
		}
		return tt
	default:
		return t
	}
}

func setErr(dst *error, e error) {
	if *dst == nil {
		*dst = e
	}
}
