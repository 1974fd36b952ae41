// Package oracle is the reference semantics of the select-from-where
// language: the recursive, map-cloning evaluator that walks the from clause
// binding by binding, exactly as §3 defines a query — every binding tuple
// the paths admit, filtered by the where clause, with the select template
// instantiated under each and the results unioned. It plans nothing and
// has no slots, access paths or pooled state: with the engine in
// internal/query it shares only the parsed AST, the path automata
// (pathexpr) and the result builder (query.Result).
//
// Only tests and benchmarks import this package: every execution mode of
// the engine — plans under any planner input, page stores, pooled
// statements, replicated followers — is checked to produce
// a result bisimilar to (and, canonicalized, byte-identical with) Eval.
package oracle

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/pathexpr"
	"repro/internal/query"
	"repro/internal/ssd"
)

// Eval answers q over g. params supplies a value for every $parameter of
// q; they are substituted into the AST first (Subst), since the reference
// evaluator has no binding slots of its own.
func Eval(q *query.Query, g *ssd.Graph, params map[string]ssd.Label) (*ssd.Graph, error) {
	sq, err := Subst(q, params)
	if err != nil {
		return nil, err
	}
	rows, err := Rows(sq, g, 0)
	if err != nil {
		return nil, err
	}
	res := query.NewResult(sq, g)
	for _, env := range rows {
		if err := res.Add(env); err != nil {
			return nil, err
		}
	}
	return res.Graph(), nil
}

// Rows evaluates the from/where clauses of a parameter-free q and returns
// the surviving binding tuples, one per distinct assignment. When
// maxRows > 0 the result is truncated at that many tuples (no error).
func Rows(q *query.Query, g *ssd.Graph, maxRows int) ([]query.Env, error) {
	if len(q.Params) > 0 {
		return nil, fmt.Errorf("oracle: query has parameters ($%s); substitute them first", q.Params[0])
	}
	ev := &evaluator{g: g, q: q, maxRows: maxRows}
	env := query.Env{Trees: map[string]ssd.NodeID{}, Labels: map[string]ssd.Label{}, Paths: map[string][]ssd.Label{}}
	if err := ev.bind(0, env); err != nil && err != errRowCap {
		return nil, err
	}
	return ev.rows, nil
}

// Subst returns a copy of q with every $parameter replaced by its literal
// value: a ParamStep becomes an exact-label regex step, a ParamTerm a
// literal term. The result is parameter-free. The engine binds the same
// values into plan slots instead; both must answer alike.
func Subst(q *query.Query, vals map[string]ssd.Label) (*query.Query, error) {
	for _, name := range q.Params {
		if _, ok := vals[name]; !ok {
			return nil, fmt.Errorf("oracle: parameter $%s not bound", name)
		}
	}
	nq := &query.Query{Select: q.Select, Where: q.Where}
	nq.From = make([]query.Binding, len(q.From))
	for i, b := range q.From {
		nb := b
		nb.Path = substSteps(b.Path, vals)
		nq.From[i] = nb
	}
	if q.Where != nil {
		nq.Where = substCond(q.Where, vals)
	}
	return nq, nil
}

func substSteps(steps []query.PathStep, vals map[string]ssd.Label) []query.PathStep {
	out := make([]query.PathStep, len(steps))
	for i, st := range steps {
		if ps, ok := st.(query.ParamStep); ok {
			out[i] = &query.RegexStep{Expr: pathexpr.Label(vals[ps.Name])}
			continue
		}
		out[i] = st
	}
	return out
}

func substCond(c query.Cond, vals map[string]ssd.Label) query.Cond {
	switch t := c.(type) {
	case query.And:
		return query.And{L: substCond(t.L, vals), R: substCond(t.R, vals)}
	case query.Or:
		return query.Or{L: substCond(t.L, vals), R: substCond(t.R, vals)}
	case query.Not:
		return query.Not{Sub: substCond(t.Sub, vals)}
	case query.Cmp:
		return query.Cmp{Op: t.Op, L: substTerm(t.L, vals), R: substTerm(t.R, vals)}
	case query.TypeTest:
		return query.TypeTest{Pred: t.Pred, T: substTerm(t.T, vals)}
	case query.LikeCond:
		return query.LikeCond{T: substTerm(t.T, vals), Pattern: t.Pattern}
	case query.Exists:
		return query.Exists{Source: t.Source, Path: substSteps(t.Path, vals)}
	default:
		return c
	}
}

func substTerm(t query.Term, vals map[string]ssd.Label) query.Term {
	if pt, ok := t.(query.ParamTerm); ok {
		return query.LitTerm{L: vals[pt.Name]}
	}
	return t
}

type evaluator struct {
	g       *ssd.Graph
	q       *query.Query
	rows    []query.Env
	maxRows int
	// aus holds this evaluation's compiled automata, one per regex step.
	// Compiling per evaluation (rather than using RegexStep's shared memo)
	// keeps concurrent evaluations of one parsed query race-free: automata
	// carry a mutable lazy-DFA cache.
	aus map[*query.RegexStep]*pathexpr.Automaton
}

func (ev *evaluator) auOf(t *query.RegexStep) *pathexpr.Automaton {
	au := ev.aus[t]
	if au == nil {
		if ev.aus == nil {
			ev.aus = map[*query.RegexStep]*pathexpr.Automaton{}
		}
		au = pathexpr.Compile(t.Expr)
		ev.aus[t] = au
	}
	return au
}

var errRowCap = fmt.Errorf("oracle: row cap exceeded")

func (ev *evaluator) bind(i int, env query.Env) error {
	if i == len(ev.q.From) {
		ok, err := ev.cond(ev.q.Where, env)
		if err != nil {
			return err
		}
		if ok {
			if ev.maxRows > 0 && len(ev.rows) >= ev.maxRows {
				return errRowCap
			}
			ev.rows = append(ev.rows, query.Env{Trees: maps.Clone(env.Trees), Labels: maps.Clone(env.Labels), Paths: maps.Clone(env.Paths)})
		}
		return nil
	}
	b := ev.q.From[i]
	src := ev.g.Root()
	if b.Source != "DB" {
		src = env.Trees[b.Source]
	}
	matches := ev.walkSteps(src, b.Path, env.Labels)
	for _, m := range matches {
		// Clone only what this match actually changes: the tree map always
		// gains b.Var, but the label/path maps are shared when the match
		// binds nothing new. Nothing downstream mutates a map in place (bind
		// and walkSteps always build fresh maps), so sharing is safe, and
		// matches that the where clause later rejects no longer pay for
		// three map copies.
		env2 := query.Env{Trees: maps.Clone(env.Trees), Labels: env.Labels, Paths: env.Paths}
		env2.Trees[b.Var] = m.node
		if len(m.labels) > 0 {
			env2.Labels = maps.Clone(env.Labels)
			maps.Copy(env2.Labels, m.labels)
		}
		if len(m.paths) > 0 {
			env2.Paths = maps.Clone(env.Paths)
			maps.Copy(env2.Paths, m.paths)
		}
		if err := ev.bind(i+1, env2); err != nil {
			return err
		}
	}
	return nil
}

// match is one (end node, variable assignment) result of walking a path.
type match struct {
	node   ssd.NodeID
	labels map[string]ssd.Label
	paths  map[string][]ssd.Label
}

// walkSteps evaluates a step sequence from src, threading label-variable
// bindings. Already-bound label variables act as filters (joins on labels),
// so `DB.%L.x A, DB.%L.y B` requires the same first label on both paths.
func (ev *evaluator) walkSteps(src ssd.NodeID, steps []query.PathStep, bound map[string]ssd.Label) []match {
	g := ev.g
	cur := []match{{node: src, labels: map[string]ssd.Label{}, paths: map[string][]ssd.Label{}}}
	for _, st := range steps {
		var next []match
		seen := map[string]bool{}
		add := func(m match) {
			key := matchKey(m)
			if !seen[key] {
				seen[key] = true
				next = append(next, m)
			}
		}
		switch t := st.(type) {
		case *query.RegexStep:
			au := ev.auOf(t)
			for _, m := range cur {
				for _, to := range au.Eval(g, m.node) {
					add(match{node: to, labels: m.labels, paths: m.paths})
				}
			}
		case query.PathVarStep:
			// Any path, binding one (shortest, BFS) witness per end node.
			au := pathexpr.Compile(pathexpr.AnyStar())
			for _, m := range cur {
				for to, witness := range au.EvalWithPaths(g, m.node) {
					np := maps.Clone(m.paths)
					np[t.Name] = witness
					add(match{node: to, labels: m.labels, paths: np})
				}
			}
		case query.LabelVarStep:
			for _, m := range cur {
				prior, alreadyBound := m.labels[t.Name]
				if !alreadyBound {
					prior, alreadyBound = bound[t.Name]
				}
				for _, e := range g.Out(m.node) {
					if alreadyBound {
						if !e.Label.Equal(prior) {
							continue
						}
						add(match{node: e.To, labels: m.labels, paths: m.paths})
						continue
					}
					nl := maps.Clone(m.labels)
					nl[t.Name] = e.Label
					add(match{node: e.To, labels: nl, paths: m.paths})
				}
			}
		}
		cur = next
	}
	return cur
}

func matchKey(m match) string {
	keys := make([]string, 0, len(m.labels))
	for k := range m.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%d", m.node)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, m.labels[k].String())
	}
	pkeys := make([]string, 0, len(m.paths))
	for k := range m.paths {
		pkeys = append(pkeys, k)
	}
	sort.Strings(pkeys)
	for _, k := range pkeys {
		fmt.Fprintf(&b, "|@%s=", k)
		for _, l := range m.paths[k] {
			b.WriteString(l.String())
			b.WriteByte('.')
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Conditions

func (ev *evaluator) cond(c query.Cond, env query.Env) (bool, error) {
	if c == nil {
		return true, nil
	}
	switch t := c.(type) {
	case query.And:
		l, err := ev.cond(t.L, env)
		if err != nil || !l {
			return false, err
		}
		return ev.cond(t.R, env)
	case query.Or:
		l, err := ev.cond(t.L, env)
		if err != nil || l {
			return l, err
		}
		return ev.cond(t.R, env)
	case query.Not:
		s, err := ev.cond(t.Sub, env)
		return !s, err
	case query.Cmp:
		ls, err := ev.values(t.L, env)
		if err != nil {
			return false, err
		}
		rs, err := ev.values(t.R, env)
		if err != nil {
			return false, err
		}
		for _, a := range ls {
			for _, b := range rs {
				if t.Op.Apply(a, b) {
					return true, nil
				}
			}
		}
		return false, nil
	case query.TypeTest:
		vs, err := ev.values(t.T, env)
		if err != nil {
			return false, err
		}
		for _, v := range vs {
			if t.Pred.Match(v) {
				return true, nil
			}
		}
		return false, nil
	case query.LikeCond:
		vs, err := ev.values(t.T, env)
		if err != nil {
			return false, err
		}
		pred := pathexpr.LikePred{Pattern: t.Pattern}
		for _, v := range vs {
			if pred.Match(v) {
				return true, nil
			}
		}
		return false, nil
	case query.Exists:
		src, ok := env.Trees[t.Source]
		if !ok {
			return false, fmt.Errorf("oracle: exists source %q unbound at evaluation", t.Source)
		}
		return len(ev.walkSteps(src, t.Path, env.Labels)) > 0, nil
	default:
		return false, fmt.Errorf("oracle: unknown condition %T", c)
	}
}

// values returns the comparable values of a term. For a tree variable these
// are the labels of its data edges (the Lorel object-vs-value overloading);
// for label variables and literals, the single label.
func (ev *evaluator) values(t query.Term, env query.Env) ([]ssd.Label, error) {
	switch tt := t.(type) {
	case query.LitTerm:
		return []ssd.Label{tt.L}, nil
	case query.LabelTerm:
		l, ok := env.Labels[tt.Name]
		if !ok {
			return nil, fmt.Errorf("oracle: label variable %%%s unbound at evaluation", tt.Name)
		}
		return []ssd.Label{l}, nil
	case query.VarTerm:
		n, ok := env.Trees[tt.Name]
		if !ok {
			return nil, fmt.Errorf("oracle: variable %q unbound at evaluation", tt.Name)
		}
		var vals []ssd.Label
		for _, e := range ev.g.Out(n) {
			if e.Label.IsData() {
				vals = append(vals, e.Label)
			}
		}
		return vals, nil
	case query.PathLenTerm:
		p, ok := env.Paths[tt.Name]
		if !ok {
			return nil, fmt.Errorf("oracle: path variable @%s unbound at evaluation", tt.Name)
		}
		return []ssd.Label{ssd.Int(int64(len(p)))}, nil
	default:
		return nil, fmt.Errorf("oracle: unknown term %T", t)
	}
}
