package core

// This file is the statement lifecycle: the prepare-once / execute-many
// read path, and the only way to run a statement. A Stmt is the product
// of parsing (and, lazily, planning) a source text exactly once; executing
// it binds $parameters into reserved plan slots and streams results
// through a Rows cursor that pulls straight from the Volcano executor.
//
// Plans are compiled per MVCC snapshot and pooled per statement: a commit
// swaps the snapshot pointer, which invalidates the pool wholesale, and
// the next execution re-plans lazily against the new snapshot — hot
// statements survive commits without ever serving a stale plan. Pooling
// (rather than sharing one plan) also makes concurrent executions safe:
// compiled automata carry mutable lazy-DFA caches, so each in-flight
// cursor owns its plan exclusively until Close returns it.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/datalog"
	"repro/internal/pathexpr"
	"repro/internal/query"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/unql"
)

// Lang identifies the front-end language of a prepared statement.
type Lang int

// The four prepare-able languages.
const (
	// LangQuery is the select-from-where language (internal/query).
	LangQuery Lang = iota
	// LangPath is a bare regular path expression evaluated from the root.
	LangPath
	// LangDatalog is a graph-datalog program.
	LangDatalog
	// LangTransform is the one-line UnQL restructuring command language:
	// `relabel <pred> to <label>`, `delete <pred>`, `collapse <pred>`,
	// `expand <pred> to l1.l2...`.
	LangTransform
)

func (l Lang) String() string {
	switch l {
	case LangPath:
		return "path"
	case LangDatalog:
		return "datalog"
	case LangTransform:
		return "transform"
	default:
		return "query"
	}
}

// SniffLang decides which language a statement text is written in and
// returns the text with any explicit prefix stripped. Explicit prefixes
// (`query:`, `path:`, `datalog:`, `unql:`) always win; otherwise a leading
// `select` keyword means query, a `:-` anywhere means datalog, a leading
// transform verb means transform, and anything else is a path expression.
// A path that genuinely starts with a symbol named like a transform verb
// needs the `path:` prefix.
func SniffLang(src string) (Lang, string) {
	trim := strings.TrimSpace(src)
	for _, p := range [...]struct {
		prefix string
		lang   Lang
	}{
		{"query:", LangQuery},
		{"path:", LangPath},
		{"datalog:", LangDatalog},
		{"unql:", LangTransform},
	} {
		if len(trim) >= len(p.prefix) && strings.EqualFold(trim[:len(p.prefix)], p.prefix) {
			return p.lang, strings.TrimSpace(trim[len(p.prefix):])
		}
	}
	first := trim
	if i := strings.IndexAny(trim, " \t\n\r"); i >= 0 {
		first = trim[:i]
	}
	switch {
	case strings.EqualFold(first, "select"):
		return LangQuery, trim
	case containsOutsideStrings(trim, ":-"):
		return LangDatalog, trim
	case transformVerbs[strings.ToLower(first)]:
		return LangTransform, trim
	default:
		return LangPath, trim
	}
}

// containsOutsideStrings reports whether sub occurs in s outside of
// double-quoted string literals (backslash escapes respected) — so a path
// expression matching an edge labeled `"x:-y"` does not sniff as datalog.
func containsOutsideStrings(s, sub string) bool {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr && c == '\\':
			i++
		case inStr && c == '"':
			inStr = false
		case inStr:
		case c == '"':
			inStr = true
		case strings.HasPrefix(s[i:], sub):
			return true
		}
	}
	return false
}

// Param binds a value to a named $parameter for one execution.
type Param struct {
	Name  string
	Value ssd.Label
}

// P builds a Param, converting common Go values to labels: string → string
// label, int/int64 → integer, float64 → float, bool → boolean; an
// ssd.Label passes through (use ssd.Sym for symbol labels). Unsupported
// types panic — a misuse caught at development time, like a bad fmt verb.
func P(name string, value any) Param {
	switch v := value.(type) {
	case ssd.Label:
		return Param{name, v}
	case string:
		return Param{name, ssd.Str(v)}
	case int:
		return Param{name, ssd.Int(int64(v))}
	case int64:
		return Param{name, ssd.Int(v)}
	case float64:
		return Param{name, ssd.Float(v)}
	case bool:
		return Param{name, ssd.Bool(v)}
	default:
		panic(fmt.Sprintf("core: P(%s): unsupported parameter type %T", name, value))
	}
}

// Stmt is a prepared statement: source text parsed once, plans compiled
// lazily per snapshot and pooled for reuse. A Stmt is safe for concurrent
// use; each execution checks a plan out of the pool (or compiles one) and
// Rows.Close returns it.
type Stmt struct {
	db       *Database
	src      string // prefix-stripped source
	lang     Lang
	params   []string        // declared $parameter names
	declared map[string]bool // the same names as a set, built once
	cols     []col           // result columns (query and path statements)

	q  *query.Query     // LangQuery
	pe pathexpr.Expr    // LangPath
	dl *datalog.Program // LangDatalog
	tr *transformStmt   // LangTransform

	mu       sync.Mutex
	snap     *snapshot             // snapshot the pooled plans were compiled for
	pool     []*query.Plan         // LangQuery: idle plans for snap
	pathPool []*pathexpr.Traversal // LangPath, param-free: idle, detached traversals
}

// maxPooledPlans bounds how many idle compiled plans a statement keeps.
// More concurrent executions than this simply re-plan on checkout. A
// parallel execution borrows 1+N plans at once (seeder plus workers), so
// the bound leaves room for a couple of concurrent parallel executions to
// recycle their whole sets.
const maxPooledPlans = 16

// colKind discriminates result columns.
type colKind int

const (
	colTree colKind = iota
	colLabel
	colPath
	colNode // path statements' single column
	colRel  // datalog: relation name
	colTup  // datalog: formatted tuple
)

type col struct {
	kind colKind
	slot int
	name string
}

// Prepare parses src once and returns a reusable statement. The language
// is sniffed (see SniffLang); $parameters become part of the statement's
// signature and must all be bound at each execution.
func (db *Database) Prepare(src string) (*Stmt, error) {
	lang, body := SniffLang(src)
	s := &Stmt{db: db, src: body, lang: lang}
	switch lang {
	case LangQuery:
		q, err := query.Parse(body)
		if err != nil {
			return nil, err
		}
		s.q = q
		s.params = q.Params
		tv, lv, pv := q.SlotVars()
		for i, name := range tv {
			s.cols = append(s.cols, col{kind: colTree, slot: i, name: name})
		}
		for i, name := range lv {
			s.cols = append(s.cols, col{kind: colLabel, slot: i, name: "%" + name})
		}
		for i, name := range pv {
			s.cols = append(s.cols, col{kind: colPath, slot: i, name: "@" + name})
		}
	case LangPath:
		e, err := pathexpr.Parse(body)
		if err != nil {
			return nil, err
		}
		s.pe = e
		s.params = pathexpr.Params(e)
		s.cols = []col{{kind: colNode, name: "node"}}
	case LangDatalog:
		prog, err := datalog.ParseProgram(body)
		if err != nil {
			return nil, err
		}
		s.dl = prog
		s.cols = []col{{kind: colRel, name: "rel"}, {kind: colTup, name: "tuple"}}
	case LangTransform:
		tr, err := parseTransform(body)
		if err != nil {
			return nil, err
		}
		s.tr = tr
		s.params = tr.params
	}
	if len(s.params) > 0 {
		s.declared = make(map[string]bool, len(s.params))
		for _, n := range s.params {
			s.declared[n] = true
		}
	}
	return s, nil
}

// Lang returns the statement's sniffed language.
func (s *Stmt) Lang() Lang { return s.lang }

// Source returns the prefix-stripped statement text.
func (s *Stmt) Source() string { return s.src }

// Params returns the statement's $parameter names in binding order.
func (s *Stmt) Params() []string { return s.params }

// Columns returns the result column names of Query-able statements: the
// query's variables (tree, then %label, then @path), a path statement's
// single "node", or datalog's "rel"/"tuple".
func (s *Stmt) Columns() []string {
	names := make([]string, len(s.cols))
	for i, c := range s.cols {
		names[i] = c.name
	}
	return names
}

// Explain describes how the statement would run against the current
// snapshot: the chosen plan for queries, a one-liner for the rest.
func (s *Stmt) Explain() (string, error) {
	switch s.lang {
	case LangQuery:
		snap := s.db.snapshot()
		p, err := query.NewPlan(s.q, snap.store(), snap.planOptions())
		if err != nil {
			return "", err
		}
		return p.Explain(), nil
	case LangPath:
		return fmt.Sprintf("path: traverse %s from root\n", s.pe), nil
	case LangDatalog:
		return fmt.Sprintf("datalog: %d rules, semi-naive\n", len(s.dl.Rules)), nil
	default:
		return fmt.Sprintf("transform: %s\n", s.tr.describe()), nil
	}
}

// ExplainAnalyze executes a query statement serially to exhaustion and
// returns its plan annotated with both the optimizer's estimated
// cardinality and the actual rows that survived each atom — the tool for
// judging whether the statistics are steering the planner well. Only query
// statements can be analyzed; args bind $parameters as in Query.
func (s *Stmt) ExplainAnalyze(ctx context.Context, args ...Param) (string, error) {
	if s.lang != LangQuery {
		return "", fmt.Errorf("core: explain analyze requires a query statement")
	}
	vals, err := s.bindArgs(args)
	if err != nil {
		return "", err
	}
	snap := s.db.snapshot()
	p, _, err := s.checkoutPlan(snap)
	if err != nil {
		return "", err
	}
	defer s.checkinPlan(snap, p)
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

// bindArgs validates args against the statement's declared parameters and
// returns them as a map.
func (s *Stmt) bindArgs(args []Param) (map[string]ssd.Label, error) {
	if len(args) == 0 && len(s.params) == 0 {
		return nil, nil
	}
	vals := make(map[string]ssd.Label, len(args))
	for _, a := range args {
		if !s.declared[a.Name] {
			return nil, fmt.Errorf("core: statement has no parameter $%s", a.Name)
		}
		if _, dup := vals[a.Name]; dup {
			return nil, fmt.Errorf("core: parameter $%s bound twice", a.Name)
		}
		vals[a.Name] = a.Value
	}
	for _, n := range s.params {
		if _, ok := vals[n]; !ok {
			return nil, fmt.Errorf("core: parameter $%s not bound", n)
		}
	}
	return vals, nil
}

// checkoutPlan returns a compiled plan for the snapshot, reusing a pooled
// one when the snapshot still matches. A snapshot swap (commit) empties
// the pool: stale plans can never run against the new graph version.
// pooled reports whether the plan came from the pool (vs freshly compiled).
func (s *Stmt) checkoutPlan(snap *snapshot) (p *query.Plan, pooled bool, err error) {
	s.mu.Lock()
	if s.snap != snap {
		s.snap = snap
		s.pool = nil
	}
	if n := len(s.pool); n > 0 {
		p := s.pool[n-1]
		s.pool = s.pool[:n-1]
		s.mu.Unlock()
		obsPlansPooled.Inc()
		return p, true, nil
	}
	s.mu.Unlock()
	obsPlansBuilt.Inc()
	p, err = query.NewPlan(s.q, snap.store(), snap.planOptions())
	return p, false, err
}

func (s *Stmt) checkinPlan(snap *snapshot, p *query.Plan) {
	s.mu.Lock()
	if s.snap == snap && len(s.pool) < maxPooledPlans {
		s.pool = append(s.pool, p)
	}
	s.mu.Unlock()
}

// checkoutPlans draws n sibling plans for one parallel execution — the
// pool handing out N plans per execution is what gives every worker its
// own automata and lazy-DFA caches without recompiling on the hot path.
// On error, every plan already drawn is returned.
func (s *Stmt) checkoutPlans(snap *snapshot, n int) ([]*query.Plan, error) {
	plans := make([]*query.Plan, 0, n)
	for i := 0; i < n; i++ {
		p, _, err := s.checkoutPlan(snap)
		if err != nil {
			s.checkinPlans(snap, plans)
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}

func (s *Stmt) checkinPlans(snap *snapshot, plans []*query.Plan) {
	for _, p := range plans {
		s.checkinPlan(snap, p)
	}
}

// invalidate drops the pooled plans and the snapshot reference. The
// Database calls it on every cached statement when it publishes a new
// snapshot, so cold statements do not pin superseded graph versions until
// they happen to run again. (Statements held privately by callers release
// theirs lazily, on their next checkout.)
func (s *Stmt) invalidate() {
	s.mu.Lock()
	s.snap = nil
	s.pool = nil
	s.mu.Unlock()
}

// checkoutTraversal returns a traversal of g for a path statement. Param-free
// statements reuse a pooled one — automaton, lazy-DFA cache and visit scratch
// are graph-independent, so the pool has no snapshot key and survives commits.
// Parameterized paths compile fresh per execution: the bound labels become
// part of the DFA's alphabet.
func (s *Stmt) checkoutTraversal(g ssd.GraphStore, vals map[string]ssd.Label) (*pathexpr.Traversal, error) {
	if len(s.params) > 0 {
		bound, err := pathexpr.BindParams(s.pe, vals)
		if err != nil {
			return nil, err
		}
		return pathexpr.Compile(bound).NewTraversal(g), nil
	}
	s.mu.Lock()
	if n := len(s.pathPool); n > 0 {
		t := s.pathPool[n-1]
		s.pathPool = s.pathPool[:n-1]
		s.mu.Unlock()
		t.Retarget(g)
		return t, nil
	}
	s.mu.Unlock()
	return pathexpr.Compile(s.pe).NewTraversal(g), nil
}

// checkinTraversal pools a param-free statement's traversal, detached from
// its store and context: an idle traversal must not pin a superseded
// snapshot until the statement happens to run again.
func (s *Stmt) checkinTraversal(t *pathexpr.Traversal) {
	if len(s.params) > 0 {
		return
	}
	t.Retarget(nil)
	t.SetContext(nil)
	s.mu.Lock()
	if len(s.pathPool) < maxPooledPlans {
		s.pathPool = append(s.pathPool, t)
	}
	s.mu.Unlock()
}

// Query executes the statement and returns a streaming Rows cursor over
// the current snapshot. Queries and paths stream — rows are produced on
// demand from the executor/traversal; datalog materializes its fixpoint
// first (the engine is inherently bottom-up) and streams the tuples.
// Transform statements have no rows; use Exec.
//
// When the database's parallelism default (SetParallelism) is above one
// and the plan has join work to fan out, the rows stream through the
// morsel-driven parallel executor: the pool hands out one plan per worker
// plus the seeding plan, and the merged output is byte-identical to serial
// execution.
//
// The returned Rows must be Closed to recycle the compiled plan(s). A
// cancelled ctx stops iteration within one pull; Rows.Err reports it.
//
//ssd:mustclose
func (s *Stmt) Query(ctx context.Context, args ...Param) (*Rows, error) {
	return s.queryTrace(ctx, nil, args)
}

// QueryTraced is Query with per-execution tracing: operator-level spans
// (per-atom rows and attributed wall time), the plan-pool outcome, and the
// parallel execution shape are recorded into tr. The trace is complete only
// after Rows.Close returns (a parallel pool must quiesce first). Tracing
// adds one ExecTrace allocation and a clock read per atom pull; the untraced
// Query path stays allocation-free.
//
//ssd:mustclose
func (s *Stmt) QueryTraced(ctx context.Context, tr *QueryTrace, args ...Param) (*Rows, error) {
	return s.queryTrace(ctx, tr, args)
}

func (s *Stmt) queryTrace(ctx context.Context, tr *QueryTrace, args []Param) (*Rows, error) {
	start := time.Now()
	vals, err := s.bindArgs(args)
	if err != nil {
		return nil, err
	}
	snap := s.db.snapshot()
	var pool *storage.PageStore
	var poolStart storage.PoolStats
	if tr != nil {
		tr.Lang = s.lang.String()
		if ps := snap.paged; ps != nil {
			pool, poolStart = ps, ps.Stats()
		}
	}
	switch s.lang {
	case LangQuery:
		p, pooled, err := s.checkoutPlan(snap)
		if err != nil {
			return nil, err
		}
		var workers []*query.Plan
		var morselSize int
		// The cost model decides whether fan-out pays off at all (a
		// single-atom plan or a tiny seed set runs serial regardless of the
		// configured ceiling), how many workers the estimated seed count
		// supports, and the morsel size. The gate uses the leading atom's
		// structural fan-out rather than the selectivity-discounted
		// estimate, so a clamped-selectivity underestimate cannot force a
		// large query serial (see Plan.ParallelHint). Best effort: a
		// plan-compile failure here cannot happen for a plan that just
		// compiled against the same snapshot, but fall back to serial
		// rather than failing the query if it does.
		if w, ms := p.ParallelHint(s.db.Parallelism()); w > 1 {
			workers, _ = s.checkoutPlans(snap, w)
			morselSize = ms
		}
		var et *query.ExecTrace
		if tr != nil {
			tr.PlanPooled = pooled
			tr.Parallel = len(workers) > 0
			et = new(query.ExecTrace)
		}
		if len(workers) > 0 {
			obsParallelQueries.Inc()
		}
		cur, err := p.CursorParallel(ctx, vals, workers, morselSize, et)
		if err != nil {
			s.checkinPlan(snap, p)
			s.checkinPlans(snap, workers)
			return nil, err
		}
		return &Rows{stmt: s, cols: s.cols, g: snap.g, start: start, trace: tr, et: et, pool: pool, poolStart: poolStart, qb: &queryBackend{cur: cur, plan: p, workers: workers, snap: snap}}, nil
	case LangPath:
		trav, err := s.checkoutTraversal(snap.store(), vals)
		if err != nil {
			return nil, err
		}
		if ctx != nil {
			trav.SetContext(ctx)
		}
		trav.Reset(snap.store().Root())
		return &Rows{stmt: s, cols: s.cols, g: snap.g, start: start, trace: tr, pool: pool, poolStart: poolStart, pb: &pathBackend{trav: trav}}, nil
	case LangDatalog:
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rels, err := datalog.NewEngine(snap.store()).Run(s.dl, datalog.SemiNaive)
		if err != nil {
			return nil, err
		}
		return &Rows{stmt: s, cols: s.cols, g: snap.g, start: start, trace: tr, pool: pool, poolStart: poolStart, db2: newDatalogBackend(rels)}, nil
	default:
		return nil, fmt.Errorf("core: transform statements produce no rows; use Exec")
	}
}

// Exec executes the statement to a whole result database: the instantiated
// select template for queries, the restructured graph for transforms.
// Path and datalog statements have no graph result; use Query. The result
// is a fresh handle with fresh caches, and nothing is logged to any WAL
// open on the receiver.
func (s *Stmt) Exec(ctx context.Context, args ...Param) (*Database, error) {
	start := time.Now()
	res, err := s.execInner(ctx, args)
	obsQueryDur.Observe(time.Since(start))
	obsQueries.Inc()
	if err != nil {
		obsQueryErrors.Inc()
	}
	return res, err
}

func (s *Stmt) execInner(ctx context.Context, args []Param) (*Database, error) {
	vals, err := s.bindArgs(args)
	if err != nil {
		return nil, err
	}
	snap := s.db.snapshot()
	switch s.lang {
	case LangQuery:
		p, _, err := s.checkoutPlan(snap)
		if err != nil {
			return nil, err
		}
		res, err := p.EvalGraphCtx(ctx, vals)
		s.checkinPlan(snap, p)
		if err != nil {
			return nil, err
		}
		return FromGraph(res), nil
	case LangTransform:
		g, err := s.tr.apply(snap.g, vals)
		if err != nil {
			return nil, err
		}
		return FromGraph(g), nil
	default:
		return nil, fmt.Errorf("core: %s statements produce rows, not a database; use Query", s.lang)
	}
}

// ---------------------------------------------------------------------------
// Rows: the streaming cursor

// Rows is a streaming result cursor in the database/sql style: Next
// advances, Scan/Env read the current row, Err reports early termination,
// Close releases the compiled plan back to the statement pool. Rows is
// bound to the snapshot current at Query time — commits during iteration
// do not affect it.
type Rows struct {
	stmt   *Stmt
	cols   []col
	g      *ssd.Graph // the pinned snapshot's graph; see Graph
	closed bool

	qb  *queryBackend
	pb  *pathBackend
	db2 *datalogBackend

	// Observability: rows are counted in a plain field (one increment per
	// Next, no atomic contention on the stream path) and flushed to the
	// process counters once, at Close, together with the query latency
	// observation. trace/et are non-nil only for QueryTraced executions.
	start time.Time
	n     int64
	trace *QueryTrace
	et    *query.ExecTrace

	// Buffer-pool attribution for the trace: the page store serving the
	// snapshot (nil when in-memory or untraced) and its counters at start.
	pool      *storage.PageStore
	poolStart storage.PoolStats

	shared query.Env // Env()'s reusable row; see Env
}

// Graph returns the graph of the snapshot this result set is bound to —
// the graph node columns refer into. It stays valid (and immutable) for
// the life of the Rows even if commits publish newer snapshots meanwhile.
func (r *Rows) Graph() *ssd.Graph { return r.g }

type queryBackend struct {
	cur     *query.Cursor
	plan    *query.Plan
	workers []*query.Plan // borrowed by the parallel cursor's worker pool
	snap    *snapshot
}

type pathBackend struct {
	trav *pathexpr.Traversal // nil once Close has pooled it
	node ssd.NodeID
	err  error // what stopped the traversal early, kept past Close
}

type datalogBackend struct {
	names []string
	rels  map[string]*datalog.Relation
	ri    int // current relation
	ti    int // next tuple within it
	rel   string
	tup   datalog.Tuple
}

func newDatalogBackend(rels map[string]*datalog.Relation) *datalogBackend {
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names)
	return &datalogBackend{names: names, rels: rels}
}

// Next advances to the next row, returning false when the result set is
// exhausted, the context is cancelled, or the cursor is closed. Check Err
// after a false Next to distinguish cancellation from exhaustion.
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	switch {
	case r.qb != nil:
		if r.qb.cur.Next() {
			r.n++
			return true
		}
		return false
	case r.pb != nil:
		n, ok := r.pb.trav.Next()
		r.pb.node = n
		if ok {
			r.n++
		} else {
			r.pb.err = r.pb.trav.Err()
		}
		return ok
	default:
		b := r.db2
		for b.ri < len(b.names) {
			rel := b.rels[b.names[b.ri]]
			if b.ti < rel.Len() {
				b.rel = b.names[b.ri]
				b.tup = rel.Tuples()[b.ti]
				b.ti++
				r.n++
				return true
			}
			b.ri++
			b.ti = 0
		}
		return false
	}
}

// Err returns the error that stopped iteration early (context
// cancellation), or nil after clean exhaustion.
func (r *Rows) Err() error {
	switch {
	case r.qb != nil:
		return r.qb.cur.Err()
	case r.pb != nil:
		return r.pb.err
	default:
		return nil
	}
}

// Columns returns the result column names (see Stmt.Columns).
func (r *Rows) Columns() []string { return r.stmt.Columns() }

// Scan copies the current row into dest, one pointer per column. Accepted
// pointer types: *ssd.NodeID (tree/node columns), *ssd.Label (label
// columns), *[]ssd.Label (path columns; the slice is shared with the
// engine — copy it to retain it past Next), *string (any column,
// formatted), and *datalog.Tuple (datalog tuple column).
func (r *Rows) Scan(dest ...any) error {
	if r.closed {
		return fmt.Errorf("core: Scan on closed Rows")
	}
	if len(dest) != len(r.cols) {
		return fmt.Errorf("core: Scan got %d destinations for %d columns", len(dest), len(r.cols))
	}
	for i, c := range r.cols {
		if err := r.scanCol(c, dest[i]); err != nil {
			return fmt.Errorf("core: Scan column %d (%s): %w", i, c.name, err)
		}
	}
	return nil
}

func (r *Rows) scanCol(c col, dest any) error {
	switch c.kind {
	case colTree, colNode:
		var n ssd.NodeID
		if c.kind == colNode {
			n = r.pb.node
		} else {
			n = r.qb.cur.Tree(c.slot)
		}
		switch d := dest.(type) {
		case *ssd.NodeID:
			*d = n
		case *string:
			*d = strconv.Itoa(int(n))
		default:
			return fmt.Errorf("want *ssd.NodeID or *string, got %T", dest)
		}
	case colLabel:
		l := r.qb.cur.Label(c.slot)
		switch d := dest.(type) {
		case *ssd.Label:
			*d = l
		case *string:
			*d = l.String()
		default:
			return fmt.Errorf("want *ssd.Label or *string, got %T", dest)
		}
	case colPath:
		p := r.qb.cur.Path(c.slot)
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
	case colRel:
		d, ok := dest.(*string)
		if !ok {
			return fmt.Errorf("want *string, got %T", dest)
		}
		*d = r.db2.rel
	case colTup:
		switch d := dest.(type) {
		case *datalog.Tuple:
			*d = r.db2.tup
		case *string:
			*d = r.db2.tup.String()
		default:
			return fmt.Errorf("want *datalog.Tuple or *string, got %T", dest)
		}
	}
	return nil
}

// Env returns the current row as a query.Env. The Env and its maps are
// REUSED across Next calls — they are valid only until the next Next or
// Close. Copy what must outlive the row.
// Path statements expose their node under the variable "node"; datalog
// rows have an empty Env.
func (r *Rows) Env() query.Env {
	switch {
	case r.qb != nil:
		r.qb.cur.EnvInto(&r.shared)
	case r.pb != nil:
		if r.shared.Trees == nil {
			r.shared = query.Env{
				Trees:  map[string]ssd.NodeID{},
				Labels: map[string]ssd.Label{},
				Paths:  map[string][]ssd.Label{},
			}
		}
		clear(r.shared.Trees)
		r.shared.Trees["node"] = r.pb.node
	}
	return r.shared
}

// Close releases the cursor, returning the compiled plan(s) (or traversal)
// to the statement's pool for reuse. For a parallel cursor this first stops
// the worker pool and waits for it to quiesce, so no returned plan is still
// being mutated. Close is idempotent and always nil; the error return
// mirrors database/sql for easy drop-in use with defer.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	switch {
	case r.qb != nil:
		r.qb.cur.Close()
		r.stmt.checkinPlan(r.qb.snap, r.qb.plan)
		r.stmt.checkinPlans(r.qb.snap, r.qb.workers)
	case r.pb != nil:
		r.stmt.checkinTraversal(r.pb.trav)
		r.pb.trav = nil
	}
	r.finish()
	return nil
}

// finish flushes this execution's observability state: the process-wide
// latency/row/error counters always, and the QueryTrace when tracing. It
// runs after the cursor teardown above, so a parallel pool has quiesced and
// the ExecTrace is final.
func (r *Rows) finish() {
	elapsed := time.Since(r.start)
	obsQueryDur.Observe(elapsed)
	obsQueries.Inc()
	obsQueryRows.Add(r.n)
	err := r.Err()
	if err != nil {
		obsQueryErrors.Inc()
	}
	tr := r.trace
	if tr == nil {
		return
	}
	tr.Rows = r.n
	tr.ElapsedUS = elapsed.Microseconds()
	if err != nil {
		tr.Error = err.Error()
	}
	if et := r.et; et != nil && r.qb != nil {
		tr.fillExec(r.qb.plan, et)
	}
	if r.pool != nil {
		st := r.pool.Stats()
		tr.PoolHits = st.Hits - r.poolStart.Hits
		tr.PoolMisses = st.Misses - r.poolStart.Misses
		tr.PoolEvictions = st.Evictions - r.poolStart.Evictions
	}
}

// ---------------------------------------------------------------------------
// The transform mini-language (LangTransform)

var transformVerbs = map[string]bool{
	"relabel": true, "delete": true, "collapse": true, "expand": true,
}

// transformStmt is one parsed restructuring command. The predicate and the
// target labels may contain $parameters.
type transformStmt struct {
	verb    string
	pred    pathexpr.Pred
	chain   []ssd.Label // relabel: one element; expand: the chain
	chainP  []string    // parameter name per chain slot ("" = literal)
	params  []string
	predSrc string
}

func (t *transformStmt) describe() string {
	out := t.verb + " " + t.predSrc
	if len(t.chain) > 0 {
		parts := make([]string, len(t.chain))
		for i := range t.chain {
			if t.chainP[i] != "" {
				parts[i] = "$" + t.chainP[i]
			} else {
				parts[i] = t.chain[i].String()
			}
		}
		out += " to " + strings.Join(parts, ".")
	}
	return out
}

// parseTransform parses `verb <pred> [to <label>[.<label>...]]`.
func parseTransform(src string) (*transformStmt, error) {
	verb, rest, _ := strings.Cut(strings.TrimSpace(src), " ")
	verb = strings.ToLower(verb)
	if !transformVerbs[verb] {
		return nil, fmt.Errorf("core: unknown transform verb %q (want relabel|delete|collapse|expand)", verb)
	}
	rest = strings.TrimSpace(rest)
	t := &transformStmt{verb: verb}
	needsTo := verb == "relabel" || verb == "expand"
	predSrc := rest
	if needsTo {
		i := strings.LastIndex(rest, " to ")
		if i < 0 {
			return nil, fmt.Errorf("core: %s requires `to <label>`", verb)
		}
		predSrc = strings.TrimSpace(rest[:i])
		for _, part := range strings.Split(strings.TrimSpace(rest[i+len(" to "):]), ".") {
			l, pname, err := parseLabelOrParam(strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			t.chain = append(t.chain, l)
			t.chainP = append(t.chainP, pname)
		}
		if verb == "relabel" && len(t.chain) != 1 {
			return nil, fmt.Errorf("core: relabel takes exactly one target label")
		}
	}
	if predSrc == "" {
		return nil, fmt.Errorf("core: %s requires a predicate", verb)
	}
	pred, err := pathexpr.ParsePred(predSrc)
	if err != nil {
		return nil, err
	}
	t.pred = pred
	t.predSrc = predSrc
	// Parameter signature: predicate params first, then chain params.
	seen := map[string]bool{}
	for _, n := range pathexpr.Params(pathexpr.Atom{Pred: pred}) {
		if !seen[n] {
			seen[n] = true
			t.params = append(t.params, n)
		}
	}
	for _, n := range t.chainP {
		if n != "" && !seen[n] {
			seen[n] = true
			t.params = append(t.params, n)
		}
	}
	return t, nil
}

// parseLabelOrParam parses one target label: `$name` or a literal.
func parseLabelOrParam(src string) (ssd.Label, string, error) {
	if strings.HasPrefix(src, "$") {
		name := src[1:]
		if name == "" {
			return ssd.Label{}, "", fmt.Errorf("core: expected parameter name after $")
		}
		return ssd.Label{}, name, nil
	}
	l, err := ParseLabelLiteral(src)
	return l, "", err
}

// ParseLabelLiteral parses a label literal: bare word → symbol, "quoted" →
// string, number → int/float, true/false → bool. It is the scanner's one
// literal rule (ssd.Scanner.Label) behind transform target labels, ssdq's
// -param values and /query parameters, so the accepted syntax cannot
// diverge from what Label.String() prints or the query languages read.
func ParseLabelLiteral(src string) (ssd.Label, error) {
	return ssd.ParseLabel(src)
}

// apply runs the transform against g with parameters bound, returning the
// restructured graph.
func (t *transformStmt) apply(g *ssd.Graph, vals map[string]ssd.Label) (*ssd.Graph, error) {
	pred := t.pred
	if len(t.params) > 0 {
		bound, err := pathexpr.BindParams(pathexpr.Atom{Pred: pred}, vals)
		if err != nil {
			return nil, err
		}
		pred = bound.(pathexpr.Atom).Pred
	}
	chain := make([]ssd.Label, len(t.chain))
	for i, l := range t.chain {
		if t.chainP[i] != "" {
			v, ok := vals[t.chainP[i]]
			if !ok {
				return nil, fmt.Errorf("core: parameter $%s not bound", t.chainP[i])
			}
			chain[i] = v
		} else {
			chain[i] = l
		}
	}
	switch t.verb {
	case "relabel":
		return unql.RelabelWhere(g, pred, chain[0]), nil
	case "delete":
		return unql.DeleteEdges(g, pred), nil
	case "collapse":
		return unql.CollapseEdges(g, pred), nil
	default: // expand
		return unql.ExpandEdges(g, pred, chain...), nil
	}
}
