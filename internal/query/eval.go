package query

import (
	"context"
	"fmt"

	"repro/internal/bisim"
	"repro/internal/ssd"
)

// Env is one binding tuple: tree variables name database nodes, label
// variables name labels, path variables name witness label sequences.
type Env struct {
	Trees  map[string]ssd.NodeID
	Labels map[string]ssd.Label
	Paths  map[string][]ssd.Label
}

// Eval evaluates the query over g and returns the result tree (a fresh
// graph). The result follows UnQL union semantics and is minimized to its
// canonical form. Evaluation plans the query and runs the iterator executor.
func Eval(q *Query, g ssd.GraphStore) (*ssd.Graph, error) {
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		return nil, err
	}
	return p.EvalGraphCtx(nil, nil)
}

// EvalGraphCtx runs the plan's serial executor and instantiates the select
// template for every surviving row, returning the canonical result. params
// binds the plan's $parameters, exactly as for Cursor. A cancelled context
// aborts the pull loop within one row and returns the context's error; a
// nil ctx disables the checks. The plan can be reused across calls (compile
// once, run many).
func (p *Plan) EvalGraphCtx(ctx context.Context, params map[string]ssd.Label) (*ssd.Graph, error) {
	cur, err := p.Cursor(ctx, params, nil)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	res := NewResult(p.q, p.g)
	var env Env
	for cur.Next() {
		cur.EnvInto(&env)
		if err := res.Add(env); err != nil {
			return nil, err
		}
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return res.Graph(), nil
}

// ---------------------------------------------------------------------------
// Select instantiation

// Result accumulates a query's answer: the select template instantiated
// under each binding row, every instantiation merged into the one result
// root (union semantics). Subtrees bound to tree variables are copied from
// src, and a source node copied twice maps to one result node, so shared
// and cyclic structure stays shared. Every way of producing rows (a cursor
// or a reference evaluator) builds its answer here.
type Result struct {
	g     *ssd.Graph
	sel   Template
	src   ssd.GraphStore
	graft map[ssd.NodeID]ssd.NodeID
}

// NewResult starts an empty answer to q over the store src its rows bind.
func NewResult(q *Query, src ssd.GraphStore) *Result {
	return &Result{g: ssd.New(), sel: q.Select, src: src, graft: map[ssd.NodeID]ssd.NodeID{}}
}

// Add merges the select template instantiated under env into the answer.
func (r *Result) Add(env Env) error { return instantiate(r.g, r.g.Root(), r.sel, env, r.src, r.graft) }

// Graph returns the answer canonicalized: duplicate edges removed, and node
// numbering and edge order value-determined, so producers that enumerate
// rows in different orders still yield byte-identical output.
func (r *Result) Graph() *ssd.Graph { return bisim.Canonicalize(r.g) }

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
