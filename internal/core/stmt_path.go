package core

// The bare path-expression front-end (LangPath): a regular path expression
// traversed from the root, one "node" column per reached node.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/pathexpr"
	"repro/internal/query"
	"repro/internal/ssd"
)

type pathStmt struct {
	pe            pathexpr.Expr
	parameterized bool

	mu   sync.Mutex
	pool []*pathexpr.Traversal // param-free only: idle, detached traversals
}

func preparePath(s *Stmt, body string) error {
	e, err := pathexpr.Parse(body)
	if err != nil {
		return err
	}
	s.params = pathexpr.Params(e)
	s.cols, s.nodeCols = []string{"node"}, 1
	s.fe = &pathStmt{pe: e, parameterized: len(s.params) > 0}
	return nil
}

func (p *pathStmt) explain(*snapshot) (string, error) {
	return fmt.Sprintf("path: traverse %s from root\n", p.pe), nil
}

func (p *pathStmt) exec(context.Context, *snapshot, map[string]ssd.Label) (*ssd.Graph, error) {
	return nil, fmt.Errorf("core: path statements produce rows, not a database; use Query")
}

// open starts a traversal from the root. Param-free statements reuse a
// pooled one — automaton, lazy-DFA cache and visit scratch are
// graph-independent, so the pool has no snapshot key and survives commits.
// Parameterized paths compile fresh per execution: the bound labels become
// part of the DFA's alphabet.
func (p *pathStmt) open(ctx context.Context, snap *snapshot, vals map[string]ssd.Label, _ *QueryTrace) (rowSource, error) {
	var t *pathexpr.Traversal
	if p.parameterized {
		bound, err := pathexpr.BindParams(p.pe, vals)
		if err != nil {
			return nil, err
		}
		t = pathexpr.Compile(bound).NewTraversal(nil)
	} else {
		p.mu.Lock()
		if n := len(p.pool); n > 0 {
			t, p.pool = p.pool[n-1], p.pool[:n-1]
		}
		p.mu.Unlock()
		if t == nil {
			t = pathexpr.Compile(p.pe).NewTraversal(nil)
		}
	}
	t.Retarget(snap.store())
	if ctx != nil {
		t.SetContext(ctx)
	}
	t.Reset(snap.store().Root())
	return &pathRows{fe: p, trav: t}, nil
}

type pathRows struct {
	fe   *pathStmt
	trav *pathexpr.Traversal
	node ssd.NodeID
	stop error // what stopped the traversal early, kept past close
}

func (r *pathRows) next() bool {
	n, ok := r.trav.Next()
	r.node = n
	if !ok {
		r.stop = r.trav.Err()
	}
	return ok
}

func (r *pathRows) err() error                 { return r.stop }
func (r *pathRows) scan(_ int, dest any) error { return scanNode(r.node, dest) }

func (r *pathRows) env(e *query.Env) {
	if e.Trees == nil {
		*e = query.Env{Trees: map[string]ssd.NodeID{}, Labels: map[string]ssd.Label{}, Paths: map[string][]ssd.Label{}}
	}
	clear(e.Trees)
	e.Trees["node"] = r.node
}

// close pools a param-free statement's traversal, detached from its store
// and context: an idle traversal must not pin a superseded snapshot until
// the statement happens to run again.
func (r *pathRows) close() {
	t, p := r.trav, r.fe
	if p.parameterized {
		return
	}
	t.Retarget(nil)
	t.SetContext(nil)
	p.mu.Lock()
	if len(p.pool) < maxPooledPlans {
		p.pool = append(p.pool, t)
	}
	p.mu.Unlock()
}
