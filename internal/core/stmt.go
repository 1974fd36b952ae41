package core

// This file is the statement lifecycle: the prepare-once / execute-many
// read path, and the only way to run a statement. A Stmt is the product
// of parsing (and, lazily, planning) a source text exactly once; executing
// it binds $parameters and streams results through a Rows cursor.
//
// Each language sits behind one seam, frontEnd, in a file of its own
// (stmt_query.go, stmt_path.go, stmt_datalog.go, stmt_transform.go) that
// owns its parsed form and whatever it pools between executions. This file
// sniffs the language, binds parameters, and wraps whichever row source an
// execution opens in one Rows cursor.

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/query"
	"repro/internal/ssd"
	"repro/internal/storage"
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

// frontEnds is the one dispatch table: each language's name, its explicit
// prefix, and the parser that fills in a statement.
var frontEnds = [...]struct {
	name, prefix string
	prepare      func(s *Stmt, body string) error
}{
	LangQuery:     {"query", "query:", prepareQuery},
	LangPath:      {"path", "path:", preparePath},
	LangDatalog:   {"datalog", "datalog:", prepareDatalog},
	LangTransform: {"transform", "unql:", prepareTransform},
}

func (l Lang) String() string {
	if uint(l) >= uint(len(frontEnds)) {
		return fmt.Sprintf("Lang(%d)", int(l))
	}
	return frontEnds[l].name
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
	for l, fe := range frontEnds {
		if len(trim) >= len(fe.prefix) && strings.EqualFold(trim[:len(fe.prefix)], fe.prefix) {
			return Lang(l), strings.TrimSpace(trim[len(fe.prefix):])
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
	case transformVerbs[strings.ToLower(first)] != nil:
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

// frontEnd is one statement language behind the statement lifecycle.
type frontEnd interface {
	// explain describes how the statement would run against snap.
	explain(snap *snapshot) (string, error)
	// open starts one execution over snap; tr is nil when untraced.
	open(ctx context.Context, snap *snapshot, vals map[string]ssd.Label, tr *QueryTrace) (rowSource, error)
	// exec runs the statement to a whole result graph.
	exec(ctx context.Context, snap *snapshot, vals map[string]ssd.Label) (*ssd.Graph, error)
}

// rowSource is one execution's row stream behind a Rows cursor.
type rowSource interface {
	next() bool
	err() error
	scan(i int, dest any) error // column i of the current row into dest
	env(e *query.Env)           // the current row, into Rows' reused Env
	close()                     // return pooled resources; runs once
}

// Stmt is a prepared statement: source text parsed once, plans compiled
// lazily per snapshot and pooled for reuse. A Stmt is safe for concurrent
// use; each execution checks a plan out of the pool (or compiles one) and
// Rows.Close returns it.
type Stmt struct {
	db       *Database
	lang     Lang
	fe       frontEnd
	params   []string // declared $parameter names
	cols     []string // result column names
	nodeCols int      // how many leading columns hold nodes
}

// maxPooledPlans bounds how many idle plans (or traversals) a statement
// keeps; more concurrent executions simply compile afresh.
const maxPooledPlans = 16

// Prepare parses src once and returns a reusable statement. The language
// is sniffed (see SniffLang); $parameters become part of the statement's
// signature and must all be bound at each execution.
func (db *Database) Prepare(src string) (*Stmt, error) {
	lang, body := SniffLang(src)
	s := &Stmt{db: db, lang: lang}
	if err := frontEnds[lang].prepare(s, body); err != nil {
		return nil, err
	}
	return s, nil
}

// Lang returns the statement's sniffed language.
func (s *Stmt) Lang() Lang { return s.lang }

// Params returns the statement's $parameter names in binding order.
func (s *Stmt) Params() []string { return s.params }

// Columns returns the result column names of Query-able statements: the
// query's variables (tree, then %label, then @path), a path statement's
// single "node", or datalog's "rel"/"tuple".
func (s *Stmt) Columns() []string { return append(make([]string, 0, len(s.cols)), s.cols...) }

// Explain describes how the statement would run against the current
// snapshot: the chosen plan for queries, a one-liner for the rest.
func (s *Stmt) Explain() (string, error) { return s.fe.explain(s.db.snapshot()) }

// bindArgs validates args against the statement's declared parameters and
// returns them as a map.
func (s *Stmt) bindArgs(args []Param) (map[string]ssd.Label, error) {
	if len(args) == 0 && len(s.params) == 0 {
		return nil, nil
	}
	vals := make(map[string]ssd.Label, len(args))
	for _, a := range args {
		if !slices.Contains(s.params, a.Name) {
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

// invalidate drops a query statement's pooled plans and their snapshot.
// The Database calls it on every cached statement when it publishes a new
// snapshot, so cold statements do not pin superseded graph versions until
// they happen to run again. (Statements held privately by callers release
// theirs lazily, on their next checkout.) No other language keeps anything
// per snapshot.
func (s *Stmt) invalidate() {
	if q, ok := s.fe.(*queryStmt); ok {
		q.invalidate()
	}
}

// Query executes the statement and returns a streaming Rows cursor over
// the current snapshot. Queries and paths stream — rows are produced on
// demand from the executor/traversal; datalog materializes its fixpoint
// first (the engine is inherently bottom-up) and streams the tuples.
// Transform statements have no rows; use Exec.
//
// The returned Rows must be Closed to recycle the compiled plan. A
// cancelled ctx stops iteration within one pull; Rows.Err reports it.
//
//ssd:mustclose
func (s *Stmt) Query(ctx context.Context, args ...Param) (*Rows, error) {
	return s.QueryTraced(ctx, nil, args...)
}

// QueryTraced is Query with per-execution tracing: operator-level spans
// (per-atom rows and attributed wall time) and the plan-pool outcome are
// recorded into tr. The trace is complete only after Rows.Close returns.
// Tracing
// adds one ExecTrace allocation and a clock read per atom pull; the untraced
// Query path stays allocation-free.
//
//ssd:mustclose
func (s *Stmt) QueryTraced(ctx context.Context, tr *QueryTrace, args ...Param) (*Rows, error) {
	start := time.Now()
	vals, err := s.bindArgs(args)
	if err != nil {
		return nil, err
	}
	snap := s.db.snapshot()
	r := &Rows{stmt: s, g: snap.g, start: start, trace: tr}
	if tr != nil {
		tr.Lang = s.lang.String()
		if ps := snap.paged; ps != nil {
			r.pool, r.poolStart = ps, ps.Stats()
		}
	}
	if r.src, err = s.fe.open(ctx, snap, vals, tr); err != nil {
		return nil, err
	}
	return r, nil
}

// Exec executes the statement to a whole result database: the instantiated
// select template for queries, the restructured graph for transforms.
// Path and datalog statements have no graph result; use Query. The result
// is a fresh handle with fresh caches, and nothing is logged to any WAL
// open on the receiver.
func (s *Stmt) Exec(ctx context.Context, args ...Param) (res *Database, err error) {
	defer func(start time.Time) {
		obsQueryDur.Observe(time.Since(start))
		obsQueries.Inc()
		if err != nil {
			obsQueryErrors.Inc()
		}
	}(time.Now())
	vals, err := s.bindArgs(args)
	if err != nil {
		return nil, err
	}
	g, err := s.fe.exec(ctx, s.db.snapshot(), vals)
	if err != nil {
		return nil, err
	}
	return FromGraph(g), nil
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
	src    rowSource
	g      *ssd.Graph // the pinned snapshot's graph; see Graph
	closed bool

	// Observability: rows are counted in a plain field (one increment per
	// Next, no atomic contention on the stream path) and flushed to the
	// process counters once, at Close, together with the query latency
	// observation. trace is non-nil only for QueryTraced executions.
	start time.Time
	n     int64
	trace *QueryTrace

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

// Next advances to the next row, returning false when the result set is
// exhausted, the context is cancelled, or the cursor is closed. Check Err
// after a false Next to distinguish cancellation from exhaustion.
func (r *Rows) Next() bool {
	if r.closed || !r.src.next() {
		return false
	}
	r.n++
	return true
}

// Err returns the error that stopped iteration early (context
// cancellation), or nil after clean exhaustion.
func (r *Rows) Err() error { return r.src.err() }

// Columns returns the result column names (see Stmt.Columns).
func (r *Rows) Columns() []string { return r.stmt.Columns() }

// IsNodeColumn reports whether column i holds a node (a query's tree
// variable or a path statement's "node"), which Scan reads into an
// *ssd.NodeID; every other column is a label, a path or datalog text.
func (r *Rows) IsNodeColumn(i int) bool { return i < r.stmt.nodeCols }

// Scan copies the current row into dest, one pointer per column. Accepted
// pointer types: *ssd.NodeID (tree/node columns), *ssd.Label (label
// columns), *[]ssd.Label (path columns; the slice is shared with the
// engine — copy it to retain it past Next), *string (any column,
// formatted), and *datalog.Tuple (datalog tuple column).
func (r *Rows) Scan(dest ...any) error {
	if r.closed {
		return fmt.Errorf("core: Scan on closed Rows")
	}
	if len(dest) != len(r.stmt.cols) {
		return fmt.Errorf("core: Scan got %d destinations for %d columns", len(dest), len(r.stmt.cols))
	}
	for i, name := range r.stmt.cols {
		if err := r.src.scan(i, dest[i]); err != nil {
			return fmt.Errorf("core: Scan column %d (%s): %w", i, name, err)
		}
	}
	return nil
}

// scanNode stores a node column's value into dest.
func scanNode(n ssd.NodeID, dest any) error {
	switch d := dest.(type) {
	case *ssd.NodeID:
		*d = n
	case *string:
		*d = strconv.Itoa(int(n))
	default:
		return fmt.Errorf("want *ssd.NodeID or *string, got %T", dest)
	}
	return nil
}

// Env returns the current row as a query.Env. The Env and its maps are
// REUSED across Next calls — they are valid only until the next Next or
// Close. Copy what must outlive the row.
// Path statements expose their node under the variable "node"; datalog
// rows have an empty Env.
func (r *Rows) Env() query.Env {
	r.src.env(&r.shared)
	return r.shared
}

// Close releases the cursor, returning the compiled plan (or traversal) to
// the statement's pool for reuse. Close is idempotent and always nil; the error return
// mirrors database/sql for easy drop-in use with defer.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.src.close()
	r.finish()
	return nil
}

// finish flushes this execution's observability state: the process-wide
// latency/row/error counters always, and the QueryTrace when tracing. It
// runs after the row source's teardown, so the executor spans are already
// in the trace.
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
	if r.pool != nil {
		st := r.pool.Stats()
		tr.PoolHits = st.Hits - r.poolStart.Hits
		tr.PoolMisses = st.Misses - r.poolStart.Misses
		tr.PoolEvictions = st.Evictions - r.poolStart.Evictions
	}
}
