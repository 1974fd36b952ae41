package core

// The select-from-where front-end (LangQuery). Plans are compiled per MVCC
// snapshot and pooled per statement: a commit swaps the snapshot pointer,
// which invalidates the pool wholesale, and the next execution re-plans
// lazily against the new snapshot — hot statements survive commits without
// ever serving a stale plan. Pooling (rather than sharing one plan) also
// makes concurrent executions safe: compiled automata carry mutable
// lazy-DFA caches, so each in-flight cursor owns its plan exclusively until
// Close returns it.

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/query"
	"repro/internal/ssd"
	"repro/internal/storage"
)

type queryStmt struct {
	db            *Database
	q             *query.Query
	nTree, nLabel int // columns: tree variables, then %labels, then @paths

	mu   sync.Mutex
	snap *snapshot     // snapshot the pooled plans were compiled for
	pool []*query.Plan // idle plans for snap
}

func prepareQuery(s *Stmt, body string) error {
	q, err := query.Parse(body)
	if err != nil {
		return err
	}
	tv, lv, pv := q.SlotVars()
	s.cols = append(s.cols, tv...)
	for _, name := range lv {
		s.cols = append(s.cols, "%"+name)
	}
	for _, name := range pv {
		s.cols = append(s.cols, "@"+name)
	}
	s.params, s.nodeCols = q.Params, len(tv)
	s.fe = &queryStmt{db: s.db, q: q, nTree: len(tv), nLabel: len(lv)}
	return nil
}

func (q *queryStmt) explain(snap *snapshot) (string, error) {
	p, err := query.NewPlan(q.q, snap.store(), snap.planOptions())
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// ExplainAnalyze executes a query statement serially to exhaustion and
// returns its plan annotated with both the optimizer's estimated
// cardinality and the actual rows that survived each atom — the tool for
// judging whether the statistics are steering the planner well. Only query
// statements can be analyzed; args bind $parameters as in Query.
func (s *Stmt) ExplainAnalyze(ctx context.Context, args ...Param) (string, error) {
	q, ok := s.fe.(*queryStmt)
	if !ok {
		return "", fmt.Errorf("core: explain analyze requires a query statement")
	}
	vals, err := s.bindArgs(args)
	if err != nil {
		return "", err
	}
	snap := s.db.snapshot()
	p, _, err := q.checkoutPlan(snap)
	if err != nil {
		return "", err
	}
	defer q.checkin(snap, p)

	ps := snap.paged
	var before storage.PoolStats
	if ps != nil {
		before = ps.Stats()
	}
	out, err := p.ExplainAnalyze(ctx, vals)
	if err != nil || ps == nil {
		return out, err
	}
	after := ps.Stats()
	return out + fmt.Sprintf("page pool: %d hits, %d misses, %d evictions\n",
		after.Hits-before.Hits, after.Misses-before.Misses, after.Evictions-before.Evictions), nil
}

// checkoutPlan returns a compiled plan for the snapshot, reusing a pooled
// one when the snapshot still matches. A snapshot swap (commit) empties
// the pool: stale plans can never run against the new graph version.
// pooled reports whether the plan came from the pool (vs freshly compiled).
func (q *queryStmt) checkoutPlan(snap *snapshot) (p *query.Plan, pooled bool, err error) {
	q.mu.Lock()
	if q.snap != snap {
		q.snap = snap
		q.pool = nil
	}
	if n := len(q.pool); n > 0 {
		p := q.pool[n-1]
		q.pool = q.pool[:n-1]
		q.mu.Unlock()
		obsPlansPooled.Inc()
		return p, true, nil
	}
	q.mu.Unlock()
	obsPlansBuilt.Inc()
	p, err = query.NewPlan(q.q, snap.store(), snap.planOptions())
	return p, false, err
}

// checkin returns a plan to the pool, unless a commit has moved it on to
// another snapshot since it was checked out.
func (q *queryStmt) checkin(snap *snapshot, p *query.Plan) {
	q.mu.Lock()
	if q.snap == snap && len(q.pool) < maxPooledPlans {
		q.pool = append(q.pool, p)
	}
	q.mu.Unlock()
}

func (q *queryStmt) invalidate() {
	q.mu.Lock()
	q.snap = nil
	q.pool = nil
	q.mu.Unlock()
}

func (q *queryStmt) open(ctx context.Context, snap *snapshot, vals map[string]ssd.Label, tr *QueryTrace) (rowSource, error) {
	p, pooled, err := q.checkoutPlan(snap)
	if err != nil {
		return nil, err
	}
	r := &queryRows{fe: q, plan: p, snap: snap, tr: tr}
	if tr != nil {
		tr.PlanPooled = pooled
		r.et = new(query.ExecTrace)
	}
	if r.cur, err = p.Cursor(ctx, vals, r.et); err != nil {
		q.checkin(snap, p)
		return nil, err
	}
	return r, nil
}

func (q *queryStmt) exec(ctx context.Context, snap *snapshot, vals map[string]ssd.Label) (*ssd.Graph, error) {
	p, _, err := q.checkoutPlan(snap)
	if err != nil {
		return nil, err
	}
	defer q.checkin(snap, p)
	return p.EvalGraphCtx(ctx, vals)
}

// queryRows streams a plan's cursor; the plan goes back to the pool at
// close.
type queryRows struct {
	fe   *queryStmt
	cur  *query.Cursor
	plan *query.Plan
	snap *snapshot
	tr   *QueryTrace
	et   *query.ExecTrace // non-nil only when traced
}

func (r *queryRows) next() bool       { return r.cur.Next() }
func (r *queryRows) err() error       { return r.cur.Err() }
func (r *queryRows) env(e *query.Env) { r.cur.EnvInto(e) }

func (r *queryRows) scan(i int, dest any) error {
	nt, nl := r.fe.nTree, r.fe.nLabel
	if i < nt {
		return scanNode(r.cur.Tree(i), dest)
	}
	if i < nt+nl {
		l := r.cur.Label(i - nt)
		switch d := dest.(type) {
		case *ssd.Label:
			*d = l
		case *string:
			*d = l.String()
		default:
			return fmt.Errorf("want *ssd.Label or *string, got %T", dest)
		}
		return nil
	}
	p := r.cur.Path(i - nt - nl)
	switch d := dest.(type) {
	case *[]ssd.Label:
		*d = p
	case *string:
		parts := make([]string, len(p))
		for i, l := range p {
			parts[i] = l.String()
		}
		*d = strings.Join(parts, ".")
	default:
		return fmt.Errorf("want *[]ssd.Label or *string, got %T", dest)
	}
	return nil
}

// close stops the cursor, folds the executor spans into the trace while
// the plan is still this execution's, and returns the plan to the pool.
func (r *queryRows) close() {
	r.cur.Close()
	if r.et != nil {
		r.tr.fillExec(r.plan, r.et)
	}
	r.fe.checkin(r.snap, r.plan)
}
