package query

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bisim"
	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

// Env is one binding tuple: tree variables name database nodes, label
// variables name labels, path variables name witness label sequences.
type Env struct {
	Trees  map[string]ssd.NodeID
	Labels map[string]ssd.Label
	Paths  map[string][]ssd.Label
}

func (e Env) clone() Env {
	ne := Env{
		Trees:  make(map[string]ssd.NodeID, len(e.Trees)),
		Labels: make(map[string]ssd.Label, len(e.Labels)),
		Paths:  make(map[string][]ssd.Label, len(e.Paths)),
	}
	for k, v := range e.Trees {
		ne.Trees[k] = v
	}
	for k, v := range e.Labels {
		ne.Labels[k] = v
	}
	for k, v := range e.Paths {
		ne.Paths[k] = v
	}
	return ne
}

// Eval evaluates the query over g and returns the result tree (a fresh
// graph). The result follows UnQL union semantics and is minimized to its
// canonical form. Evaluation plans the query and runs the iterator executor;
// see EvalNaive for the reference tree-walking evaluator.
func Eval(q *Query, g ssd.GraphStore) (*ssd.Graph, error) {
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		return nil, err
	}
	return p.EvalGraphCtx(nil, nil)
}

// EvalNaive evaluates with the original recursive, map-cloning tree walker
// — the reference semantics the planned engine is cross-checked against,
// and the baseline the ssdbench engine ablation measures. It is not a
// serving path. Queries with $parameters must go through SubstParams first.
func EvalNaive(q *Query, g *ssd.Graph) (*ssd.Graph, error) {
	rows, err := EvalRows(q, g, 0)
	if err != nil {
		return nil, err
	}
	res := ssd.New()
	graftCache := map[ssd.NodeID]ssd.NodeID{}
	for _, env := range rows {
		if err := instantiate(res, res.Root(), q.Select, env, g, graftCache); err != nil {
			return nil, err
		}
	}
	return canonical(res), nil
}

// EvalGraphCtx runs the plan's serial executor and instantiates the select
// template for every surviving row, returning the canonical result. params
// binds the plan's $parameters, exactly as for Cursor. A cancelled context
// aborts the pull loop within one row and returns the context's error; a
// nil ctx disables the checks. The plan can be reused across calls (compile
// once, run many).
func (p *Plan) EvalGraphCtx(ctx context.Context, params map[string]ssd.Label) (*ssd.Graph, error) {
	cur, err := p.Cursor(ctx, params)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	res := ssd.New()
	graftCache := map[ssd.NodeID]ssd.NodeID{}
	var env Env
	for cur.Next() {
		cur.EnvInto(&env)
		if err := instantiate(res, res.Root(), p.q.Select, env, p.g, graftCache); err != nil {
			return nil, err
		}
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return canonical(res), nil
}

// Rows drives the executor and materializes the surviving binding tuples —
// the planned counterpart of EvalRows, used by cross-check tests. Plans
// with parameters yield no rows here; use Cursor with values instead.
func (p *Plan) Rows(maxRows int) []Env {
	cur, err := p.Cursor(nil, nil)
	if err != nil {
		return nil
	}
	defer cur.Close()
	var rows []Env
	for cur.Next() {
		rows = append(rows, cur.Env())
		if maxRows > 0 && len(rows) >= maxRows {
			break
		}
	}
	if cur.Err() != nil {
		// Partial rows after a mid-stream failure would make a cross-check
		// quietly compare against truncated output.
		return nil
	}
	return rows
}

// canonical dedups and canonicalizes a result — Canonicalize, not just
// Minimize: node numbering and edge order become value-determined, so
// engines that enumerate bindings in different orders still produce
// byte-identical output.
func canonical(res *ssd.Graph) *ssd.Graph {
	res.Dedup()
	return bisim.Canonicalize(res)
}

// EvalRows evaluates the from/where clauses and returns the surviving
// binding tuples. When maxRows > 0 the result is truncated at that many
// tuples (no error). Queries with $parameters must be substituted first
// (SubstParams); this evaluator has no binding mechanism of its own.
func EvalRows(q *Query, g *ssd.Graph, maxRows int) ([]Env, error) {
	if len(q.Params) > 0 {
		return nil, fmt.Errorf("query: query has parameters ($%s); substitute them before naive evaluation", q.Params[0])
	}
	ev := &evaluator{g: g, q: q, maxRows: maxRows}
	env := Env{Trees: map[string]ssd.NodeID{}, Labels: map[string]ssd.Label{}, Paths: map[string][]ssd.Label{}}
	if err := ev.bind(0, env); err != nil && err != errRowCap {
		return nil, err
	}
	return ev.rows, nil
}

type evaluator struct {
	g       *ssd.Graph
	q       *Query
	rows    []Env
	maxRows int
	// aus holds this evaluation's compiled automata, one per regex step.
	// Compiling per evaluation (rather than using RegexStep's shared memo)
	// keeps concurrent evaluations of one parsed query race-free: automata
	// carry a mutable lazy-DFA cache.
	aus map[*RegexStep]*pathexpr.Automaton
}

func (ev *evaluator) auOf(t *RegexStep) *pathexpr.Automaton {
	au := ev.aus[t]
	if au == nil {
		if ev.aus == nil {
			ev.aus = map[*RegexStep]*pathexpr.Automaton{}
		}
		au = pathexpr.Compile(t.Expr)
		ev.aus[t] = au
	}
	return au
}

var errRowCap = fmt.Errorf("query: row cap exceeded")

func (ev *evaluator) bind(i int, env Env) error {
	if i == len(ev.q.From) {
		ok, err := ev.cond(ev.q.Where, env)
		if err != nil {
			return err
		}
		if ok {
			if ev.maxRows > 0 && len(ev.rows) >= ev.maxRows {
				return errRowCap
			}
			ev.rows = append(ev.rows, env.clone())
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
		env2 := Env{Trees: make(map[string]ssd.NodeID, len(env.Trees)+1), Labels: env.Labels, Paths: env.Paths}
		for k, v := range env.Trees {
			env2.Trees[k] = v
		}
		env2.Trees[b.Var] = m.node
		if len(m.labels) > 0 {
			env2.Labels = make(map[string]ssd.Label, len(env.Labels)+len(m.labels))
			for k, v := range env.Labels {
				env2.Labels[k] = v
			}
			for k, v := range m.labels {
				env2.Labels[k] = v
			}
		}
		if len(m.paths) > 0 {
			env2.Paths = make(map[string][]ssd.Label, len(env.Paths)+len(m.paths))
			for k, v := range env.Paths {
				env2.Paths[k] = v
			}
			for k, v := range m.paths {
				env2.Paths[k] = v
			}
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
func (ev *evaluator) walkSteps(src ssd.NodeID, steps []PathStep, bound map[string]ssd.Label) []match {
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
		case *RegexStep:
			au := ev.auOf(t)
			for _, m := range cur {
				for _, to := range au.Eval(g, m.node) {
					add(match{node: to, labels: m.labels, paths: m.paths})
				}
			}
		case PathVarStep:
			// Any path, binding one (shortest, BFS) witness per end node.
			au := pathexpr.Compile(pathexpr.AnyStar())
			for _, m := range cur {
				for to, witness := range au.EvalWithPaths(g, m.node) {
					np := make(map[string][]ssd.Label, len(m.paths)+1)
					for k, v := range m.paths {
						np[k] = v
					}
					np[t.Name] = witness
					add(match{node: to, labels: m.labels, paths: np})
				}
			}
		case LabelVarStep:
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
					nl := make(map[string]ssd.Label, len(m.labels)+1)
					for k, v := range m.labels {
						nl[k] = v
					}
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

func (ev *evaluator) cond(c Cond, env Env) (bool, error) {
	if c == nil {
		return true, nil
	}
	switch t := c.(type) {
	case And:
		l, err := ev.cond(t.L, env)
		if err != nil || !l {
			return false, err
		}
		return ev.cond(t.R, env)
	case Or:
		l, err := ev.cond(t.L, env)
		if err != nil || l {
			return l, err
		}
		return ev.cond(t.R, env)
	case Not:
		s, err := ev.cond(t.Sub, env)
		return !s, err
	case Cmp:
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
	case TypeTest:
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
	case LikeCond:
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
	case Exists:
		src, ok := env.Trees[t.Source]
		if !ok {
			return false, fmt.Errorf("query: exists source %q unbound at evaluation", t.Source)
		}
		return len(ev.walkSteps(src, t.Path, env.Labels)) > 0, nil
	default:
		return false, fmt.Errorf("query: unknown condition %T", c)
	}
}

// values returns the comparable values of a term. For a tree variable these
// are the labels of its data edges (the Lorel object-vs-value overloading);
// for label variables and literals, the single label.
func (ev *evaluator) values(t Term, env Env) ([]ssd.Label, error) {
	switch tt := t.(type) {
	case LitTerm:
		return []ssd.Label{tt.L}, nil
	case LabelTerm:
		l, ok := env.Labels[tt.Name]
		if !ok {
			return nil, fmt.Errorf("query: label variable %%%s unbound at evaluation", tt.Name)
		}
		return []ssd.Label{l}, nil
	case VarTerm:
		n, ok := env.Trees[tt.Name]
		if !ok {
			return nil, fmt.Errorf("query: variable %q unbound at evaluation", tt.Name)
		}
		var vals []ssd.Label
		for _, e := range ev.g.Out(n) {
			if e.Label.IsData() {
				vals = append(vals, e.Label)
			}
		}
		return vals, nil
	case PathLenTerm:
		p, ok := env.Paths[tt.Name]
		if !ok {
			return nil, fmt.Errorf("query: path variable @%s unbound at evaluation", tt.Name)
		}
		return []ssd.Label{ssd.Int(int64(len(p)))}, nil
	default:
		return nil, fmt.Errorf("query: unknown term %T", t)
	}
}

// ---------------------------------------------------------------------------
// Select instantiation

// instantiate adds the instantiation of template t under env as edges of
// `at` in res. Union semantics: every tuple's instantiation merges into the
// same top-level node.
func instantiate(res *ssd.Graph, at ssd.NodeID, t Template, env Env, src ssd.GraphStore, graftCache map[ssd.NodeID]ssd.NodeID) error {
	switch tt := t.(type) {
	case VarRef:
		n, ok := env.Trees[tt.Name]
		if !ok {
			return fmt.Errorf("query: select variable %q unbound", tt.Name)
		}
		copyEdges(res, at, src, n, graftCache)
		return nil
	case LitTree:
		res.AddLeaf(at, tt.L)
		return nil
	case LabelTree:
		l, ok := env.Labels[tt.Name]
		if !ok {
			return fmt.Errorf("query: label variable %%%s unbound in select", tt.Name)
		}
		res.AddLeaf(at, l)
		return nil
	case PathTree:
		p, ok := env.Paths[tt.Name]
		if !ok {
			return fmt.Errorf("query: path variable @%s unbound in select", tt.Name)
		}
		cur := at
		for _, l := range p {
			cur = res.AddLeaf(cur, l)
		}
		return nil
	case Struct:
		for _, f := range tt.Fields {
			var l ssd.Label
			switch le := f.Label.(type) {
			case LitLabel:
				l = le.L
			case LabelVarRef:
				var ok bool
				l, ok = env.Labels[le.Name]
				if !ok {
					return fmt.Errorf("query: label variable %%%s unbound in select", le.Name)
				}
			}
			child := res.AddNode()
			if err := instantiate(res, child, f.Value, env, src, graftCache); err != nil {
				return err
			}
			res.AddEdge(at, l, child)
		}
		return nil
	default:
		return fmt.Errorf("query: unknown template %T", t)
	}
}

// copyEdges merges the out-edges of src:n into res:at, grafting each child
// subtree. The graft cache keeps one result node per source node so shared
// and cyclic structure stays shared.
func copyEdges(res *ssd.Graph, at ssd.NodeID, src ssd.GraphStore, n ssd.NodeID, cache map[ssd.NodeID]ssd.NodeID) {
	for _, e := range src.Out(n) {
		res.AddEdge(at, e.Label, graftNode(res, src, e.To, cache))
	}
}

func graftNode(res *ssd.Graph, src ssd.GraphStore, n ssd.NodeID, cache map[ssd.NodeID]ssd.NodeID) ssd.NodeID {
	if rn, ok := cache[n]; ok {
		return rn
	}
	rn := res.AddNode()
	cache[n] = rn
	// Iterative copy to survive deep trees.
	type work struct{ src, dst ssd.NodeID }
	stack := []work{{n, rn}}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range src.Out(w.src) {
			to, ok := cache[e.To]
			if !ok {
				to = res.AddNode()
				cache[e.To] = to
				stack = append(stack, work{e.To, to})
			}
			res.AddEdge(w.dst, e.Label, to)
		}
	}
	return rn
}
