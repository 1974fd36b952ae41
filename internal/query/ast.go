// Package query implements the SQL-like query language §3 of the paper
// arrives at: a select-from-where syntax over path expressions, with tree
// variables and label variables to "indicate how paths or edges are to be
// tied together", regular expressions to constrain paths, and tree
// templates in the select clause to form new structures. It corresponds to
// the select fragment shared by UnQL [10] and Lorel [5].
//
// Example (over the Figure 1 database):
//
//	select {Title: T}
//	from   DB.Entry.Movie M,
//	       M.Title._ T,
//	       M.(Cast|Credit|Director|Actors|isint)*._ A
//	where  A = "Allen"
//
// Semantics notes:
//
//   - A tree variable's comparable values are the labels of its data edges;
//     comparisons are existentially overloaded (T = "x" holds if some data
//     edge of T carries "x") — the operator overloading the paper notes
//     Lorel requires.
//   - %L steps in from-paths bind label variables; `select {%L: X}` uses a
//     bound label to build output edges.
//   - Results follow UnQL's union semantics: the result is the set union of
//     the instantiated select template over all binding tuples.
package query

import (
	"slices"
	"strings"

	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

// Query is a parsed select-from-where query.
type Query struct {
	Select Template
	From   []Binding
	Where  Cond // nil when absent

	// Params lists the $parameter names occurring in the query, in first-
	// occurrence order (from-paths before where). Populated by Parse; a
	// query with parameters must be executed through a parameter-aware
	// entry point (Plan.Cursor or Plan.EvalGraphCtx).
	Params []string
}

// SlotVars returns the query's variable names in plan slot order: tree
// variables in from-clause binding order, label and path variables by first
// occurrence over the from clause. The planner assigns slots from exactly
// this list, and Cursor's slot accessors (and the statement layer's result
// columns) follow it. Tree names are returned as written, duplicates
// included; NewPlan rejects those.
func (q *Query) SlotVars() (trees, labels, paths []string) {
	trees = make([]string, len(q.From))
	for i, b := range q.From {
		trees[i] = b.Var
		for _, st := range b.Path {
			switch t := st.(type) {
			case LabelVarStep:
				if !slices.Contains(labels, t.Name) {
					labels = append(labels, t.Name)
				}
			case PathVarStep:
				if !slices.Contains(paths, t.Name) {
					paths = append(paths, t.Name)
				}
			}
		}
	}
	return trees, labels, paths
}

// Binding is one comma-separated element of the from clause: it walks Path
// from Source ("DB" or an earlier variable) and binds Var to each node
// reached (and any %label variables along the way).
type Binding struct {
	Source string
	Path   []PathStep
	Var    string
}

// PathStep is one top-level step of a from-path: either a regular path
// fragment or a label-variable binder.
type PathStep interface{ isStep() }

// RegexStep is a (possibly multi-edge) regular path fragment. It carries
// only the expression: every evaluation context (a plan, a naive
// evaluator) compiles its own automaton, because automata hold mutable
// lazy-DFA caches and sharing one across concurrent executions races.
type RegexStep struct {
	Expr pathexpr.Expr
}

// LabelVarStep traverses exactly one edge and binds its label to Name.
type LabelVarStep struct{ Name string }

// PathVarStep traverses any path (like `_*`) and binds the variable to one
// witness label sequence — the shortest, BFS order — per node reached. This
// is the third variable kind §3 of the paper calls for ("label variables,
// tree variables and possibly path variables"). Written `@P`.
type PathVarStep struct{ Name string }

// ParamStep traverses exactly one edge whose label equals the value bound
// to the named $parameter at execution time. The planner resolves the name
// to a reserved parameter slot, so re-executing a prepared plan with new
// arguments involves no re-planning.
type ParamStep struct{ Name string }

func (*RegexStep) isStep()   {}
func (LabelVarStep) isStep() {}
func (PathVarStep) isStep()  {}
func (ParamStep) isStep()    {}

// ---------------------------------------------------------------------------
// Select templates

// Template constructs one output tree per binding tuple.
type Template interface{ isTemplate() }

// VarRef emits the subtree of a bound tree variable.
type VarRef struct{ Name string }

// LitTree emits the single-edge tree {L: {}}.
type LitTree struct{ L ssd.Label }

// LabelTree emits the single-edge tree {ℓ: {}} where ℓ is the value of a
// bound label variable — written `%N` in template position.
type LabelTree struct{ Name string }

// PathTree re-materializes a bound path variable as a chain of edges:
// {l₁: {l₂: … {}}} — written `@P` in template position.
type PathTree struct{ Name string }

// Struct emits a braces tree with computed edge labels.
type Struct struct{ Fields []Field }

// Field is one `label: template` pair of a Struct.
type Field struct {
	Label LabelExpr
	Value Template
}

func (VarRef) isTemplate()    {}
func (LitTree) isTemplate()   {}
func (LabelTree) isTemplate() {}
func (PathTree) isTemplate()  {}
func (Struct) isTemplate()    {}

// LabelExpr computes an output edge label: a literal or a label variable.
type LabelExpr interface{ isLabelExpr() }

// LitLabel is a constant output label.
type LitLabel struct{ L ssd.Label }

// LabelVarRef reuses a bound %variable as an output label.
type LabelVarRef struct{ Name string }

func (LitLabel) isLabelExpr()    {}
func (LabelVarRef) isLabelExpr() {}

// ---------------------------------------------------------------------------
// Where conditions

// Cond is a boolean condition over an environment of bindings.
type Cond interface{ isCond() }

// And is conjunction.
type And struct{ L, R Cond }

// Or is disjunction.
type Or struct{ L, R Cond }

// Not is negation.
type Not struct{ Sub Cond }

// Cmp compares two terms under the existential overloading described in the
// package comment.
type Cmp struct {
	Op   pathexpr.CmpOp
	L, R Term
}

// TypeTest applies a unary type predicate to a term, e.g. isstring(L).
type TypeTest struct {
	Pred pathexpr.Pred
	T    Term
}

// LikeCond matches a term against a %-pattern.
type LikeCond struct {
	T       Term
	Pattern string
}

// Exists is satisfied when Path from the Source variable matches at least
// one node, e.g. `exists M.Director`.
type Exists struct {
	Source string
	Path   []PathStep
}

func (And) isCond()      {}
func (Or) isCond()       {}
func (Not) isCond()      {}
func (Cmp) isCond()      {}
func (TypeTest) isCond() {}
func (LikeCond) isCond() {}
func (Exists) isCond()   {}

// Term is a comparable operand: a tree variable (value set = its data-edge
// labels), a label variable, or a literal.
type Term interface{ isTerm() }

// VarTerm names a tree variable.
type VarTerm struct{ Name string }

// LabelTerm names a label variable.
type LabelTerm struct{ Name string }

// LitTerm is a literal label value.
type LitTerm struct{ L ssd.Label }

// PathLenTerm is the length of a bound path variable, as an int — written
// pathlen(@P). It lets conditions constrain path depth.
type PathLenTerm struct{ Name string }

// ParamTerm is a named $parameter in term position; its value is supplied
// at execution time.
type ParamTerm struct{ Name string }

func (VarTerm) isTerm()     {}
func (LabelTerm) isTerm()   {}
func (LitTerm) isTerm()     {}
func (PathLenTerm) isTerm() {}
func (ParamTerm) isTerm()   {}

// ---------------------------------------------------------------------------
// Printing (used in error messages and the CLI's explain output)

// String renders the query in surface syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("select ")
	writeTemplate(&b, q.Select)
	b.WriteString("\nfrom ")
	for i, bind := range q.From {
		if i > 0 {
			b.WriteString(",\n     ")
		}
		b.WriteString(bind.Source)
		writeSteps(&b, bind.Path)
		b.WriteString(" " + bind.Var)
	}
	if q.Where != nil {
		b.WriteString("\nwhere ")
		writeCond(&b, q.Where)
	}
	return b.String()
}

func writeTemplate(b *strings.Builder, t Template) {
	switch tt := t.(type) {
	case VarRef:
		b.WriteString(tt.Name)
	case LitTree:
		b.WriteString(tt.L.String())
	case LabelTree:
		b.WriteString("%" + tt.Name)
	case PathTree:
		b.WriteString("@" + tt.Name)
	case Struct:
		b.WriteByte('{')
		for i, f := range tt.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			switch l := f.Label.(type) {
			case LitLabel:
				b.WriteString(l.L.String())
			case LabelVarRef:
				b.WriteString("%" + l.Name)
			}
			b.WriteString(": ")
			writeTemplate(b, f.Value)
		}
		b.WriteByte('}')
	}
}

func writeCond(b *strings.Builder, c Cond) {
	switch t := c.(type) {
	case And:
		b.WriteByte('(')
		writeCond(b, t.L)
		b.WriteString(" and ")
		writeCond(b, t.R)
		b.WriteByte(')')
	case Or:
		b.WriteByte('(')
		writeCond(b, t.L)
		b.WriteString(" or ")
		writeCond(b, t.R)
		b.WriteByte(')')
	case Not:
		b.WriteString("not ")
		writeCond(b, t.Sub)
	case Cmp:
		writeTerm(b, t.L)
		b.WriteString(" " + t.Op.String() + " ")
		writeTerm(b, t.R)
	case TypeTest:
		b.WriteString(t.Pred.String() + "(")
		writeTerm(b, t.T)
		b.WriteByte(')')
	case LikeCond:
		writeTerm(b, t.T)
		b.WriteString(" like " + ssd.Str(t.Pattern).String())
	case Exists:
		b.WriteString("exists " + t.Source)
		writeSteps(b, t.Path)
	}
}

func writeSteps(b *strings.Builder, steps []PathStep) {
	for _, st := range steps {
		b.WriteByte('.')
		switch s := st.(type) {
		case *RegexStep:
			b.WriteString(s.Expr.String())
		case LabelVarStep:
			b.WriteString("%" + s.Name)
		case PathVarStep:
			b.WriteString("@" + s.Name)
		case ParamStep:
			b.WriteString("$" + s.Name)
		}
	}
}

func writeTerm(b *strings.Builder, t Term) {
	switch tt := t.(type) {
	case VarTerm:
		b.WriteString(tt.Name)
	case LabelTerm:
		b.WriteString("%" + tt.Name)
	case LitTerm:
		b.WriteString(tt.L.String())
	case PathLenTerm:
		b.WriteString("pathlen(@" + tt.Name + ")")
	case ParamTerm:
		b.WriteString("$" + tt.Name)
	}
}
