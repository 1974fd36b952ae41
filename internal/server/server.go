// Package server is the HTTP/JSON serving layer over a core.Database: the
// front door that turns the prepared-statement lifecycle and the query
// executor into a network service.
//
//	POST /query      — run a parameterized statement, stream rows as NDJSON
//	POST /mutate     — apply a mutation script as one committed batch
//	POST /checkpoint — force a durable checkpoint (directory-backed databases)
//	GET  /healthz    — liveness plus snapshot and durability stats
//	GET  /metrics    — the process metrics registry (Prometheus text, or
//	                   ?format=json)
//
// Observability: every endpoint carries request/in-flight/latency series on
// the process registry (internal/obs); POST /query?trace=1 appends the
// per-query operator trace to the NDJSON terminal status line; queries
// slower than Config.SlowQuery are logged, with their trace, through the
// structured logger.
//
// Statements are cached by query text through the database's LRU statement
// cache (core.Database.PrepareCached), so a hot query pays lexing, parsing
// and planning once across all connections; per-request work is binding
// $parameters and pulling rows from a pooled plan.
// Every request runs under its own context: client disconnects and
// timeouts stop the cursor within one pull, and a drained shutdown waits
// for in-flight cursors before returning.
//
// Over a directory-backed database (core.OpenPath), the server also runs a
// background checkpointer: on an interval, or whenever the write-ahead log
// outgrows a size threshold, it calls Database.Checkpoint — which
// serializes a pinned MVCC snapshot without blocking readers or the single
// writer — so restart cost stays bounded while the server keeps taking
// traffic.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ssd"
)

// Config tunes a Server. The zero value serves with no timeout.
type Config struct {
	// DefaultTimeout bounds requests that do not name a timeout_ms
	// themselves. Zero = no default bound.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms. Zero = uncapped.
	MaxTimeout time.Duration
	// MaxRows caps the rows streamed per request (0 = unlimited). A capped
	// response reports "truncated" in its status line rather than posing
	// as a complete result.
	MaxRows int
	// CheckpointInterval checkpoints a directory-backed database on a
	// timer (0 = no timer). Ignored for databases without a durable
	// directory.
	CheckpointInterval time.Duration
	// CheckpointMaxWAL checkpoints as soon as the write-ahead log exceeds
	// this many bytes (0 = no size trigger), polled once a second.
	CheckpointMaxWAL int64
	// Logger receives structured server events: background-checkpointer
	// activity and errors, and slow-query reports. nil discards them.
	Logger *slog.Logger
	// SlowQuery logs any /query request whose end-to-end latency meets or
	// exceeds this threshold, at Warn level with the query text, parameter
	// shape, row count and operator trace. Zero disables the log.
	SlowQuery time.Duration

	// ReadOnly rejects /mutate and /checkpoint with 403: the posture of a
	// follower replica, whose state is owned by its replication stream.
	ReadOnly bool
	// Role is reported in /healthz ("leader", "follower"); empty reports
	// "single".
	Role string
	// LeaderURL, on a follower, is reported in /healthz and named in the
	// /mutate rejection so a client learns where writes go.
	LeaderURL string
	// ReplWait bounds how long a /query carrying an X-SSD-Seq token ahead
	// of this database's position is held before answering 503 with
	// Retry-After. Zero uses DefaultReplWait. A read-your-writes token is
	// never silently ignored: the read either waits into freshness or
	// fails loudly.
	ReplWait time.Duration
	// Follower, when set, is the replication client feeding this server's
	// database; /healthz reports its lag, connection state and counters.
	Follower *Follower

	// pollOverride shortens the checkpointer loop cadence in tests.
	pollOverride time.Duration
}

// DefaultReplWait bounds tokened-read waits when Config.ReplWait is zero.
const DefaultReplWait = 2 * time.Second

// Server serves one core.Database over HTTP. Safe for concurrent use.
type Server struct {
	db  *core.Database
	cfg Config
	mux *http.ServeMux
	log *slog.Logger

	// The drain gate. gateMu orders admissions against the start of a
	// drain: every inflight.Add happens under the lock and before
	// Shutdown flips draining, so Add can never race the Wait that
	// follows (the sync.WaitGroup add-while-waiting-at-zero panic).
	gateMu   sync.Mutex
	draining bool
	inflight sync.WaitGroup

	// Background checkpointer lifecycle (nil stop channel = not running).
	ckptStop chan struct{}
	ckptDone sync.WaitGroup

	// replStop ends long-lived /replicate/wal streams at shutdown. Streams
	// are deliberately outside the drain gate: a follower tailing the log
	// would otherwise hold Shutdown to its deadline every time.
	replStop chan struct{}
}

// New builds a Server over db, starting the background checkpointer when
// the database is durable and a checkpoint trigger is configured.
func New(db *core.Database, cfg Config) *Server {
	s := &Server{db: db, cfg: cfg, mux: http.NewServeMux(), log: cfg.Logger}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.replStop = make(chan struct{})
	s.mux.HandleFunc("POST /query", instrument("query", s.handleQuery))
	s.mux.HandleFunc("POST /mutate", instrument("mutate", s.handleMutate))
	s.mux.HandleFunc("POST /checkpoint", instrument("checkpoint", s.handleCheckpoint))
	s.mux.HandleFunc("GET /healthz", instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", handleMetrics)
	if db.Durable() {
		// Any durable database can lead: followers (which are durable by
		// construction) expose the same endpoints, so replicas can chain.
		s.mux.HandleFunc("GET /replicate/snapshot", instrument("replicate_snapshot", s.handleReplSnapshot))
		s.mux.HandleFunc("GET /replicate/wal", instrument("replicate_wal", s.handleReplWAL))
	}
	if db.Durable() && (cfg.CheckpointInterval > 0 || cfg.CheckpointMaxWAL > 0) {
		s.startCheckpointer()
	}
	return s
}

// startCheckpointer launches the background loop. The poll cadence is the
// configured interval when only the timer trigger is set; with a size
// trigger the log is polled every second so an ingest burst is bounded by
// roughly one second of overshoot, not a whole interval.
func (s *Server) startCheckpointer() {
	poll := s.cfg.CheckpointInterval
	if s.cfg.CheckpointMaxWAL > 0 && (poll == 0 || poll > time.Second) {
		poll = time.Second
	}
	if s.cfg.pollOverride > 0 {
		poll = s.cfg.pollOverride
	}
	stop := make(chan struct{})
	s.ckptStop = stop
	s.ckptDone.Add(1)
	go func() {
		defer s.ckptDone.Done()
		t := time.NewTicker(poll)
		defer t.Stop()
		lastTimed := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			// The half-poll tolerance keeps interval-only configurations
			// checkpointing on every due tick: lastTimed is stamped at
			// decision time, and ticker scheduling slack would otherwise
			// leave Since a hair under the interval at the next tick,
			// silently doubling the cadence.
			timedDue := s.cfg.CheckpointInterval > 0 &&
				time.Since(lastTimed) >= s.cfg.CheckpointInterval-poll/2
			sizeDue := s.cfg.CheckpointMaxWAL > 0 && s.db.WALSize() >= s.cfg.CheckpointMaxWAL
			if !timedDue && !sizeDue {
				continue
			}
			lastTimed = time.Now()
			info, err := s.db.Checkpoint()
			if err != nil {
				s.log.Error("background checkpoint failed", "err", err)
				continue
			}
			if !info.NoOp {
				s.log.Info("checkpointed",
					"seq", info.Seq, "bytes", info.Bytes, "folded", info.Truncated)
			}
		}
	}()
}

// Handler returns the root handler, suitable for http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops admitting requests (new ones get 503) and waits until
// every in-flight request — and therefore every open cursor — has drained,
// or ctx expires. It does not close listeners; pair it with
// http.Server.Shutdown, which handles the connection side.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gateMu.Lock()
	wasDraining := s.draining
	s.draining = true
	stop := s.ckptStop
	s.ckptStop = nil
	s.gateMu.Unlock()
	if !wasDraining {
		// End long-lived replication streams; followers reconnect to the
		// restarted process (or a promoted leader) with their position.
		close(s.replStop)
	}
	if stop != nil {
		close(stop)
		s.ckptDone.Wait()
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit registers a request against the drain gate. It reports false (and
// answers 503) when the server is shutting down.
func (s *Server) admit(w http.ResponseWriter) bool {
	s.gateMu.Lock()
	if s.draining {
		s.gateMu.Unlock()
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server: shutting down"))
		return false
	}
	s.inflight.Add(1)
	s.gateMu.Unlock()
	return true
}

// queryRequest is the POST /query body.
type queryRequest struct {
	// Query is the statement text, any of the prepare-able languages
	// (select-from-where, path:, datalog:, unql: — see core.SniffLang).
	Query string `json:"query"`
	// Params binds $name parameters. Strings follow the ssdq -param
	// literal syntax: a bare word is a symbol ("Movie"), an embedded
	// quoted form is a string ("\"Allen\""); numbers and booleans map to
	// int/float/bool labels.
	Params map[string]json.RawMessage `json:"params"`
	// TimeoutMS bounds this request's execution, overriding the server
	// default (subject to the configured cap).
	TimeoutMS int `json:"timeout_ms"`
	// Limit caps the rows returned for this request (0 = server default).
	Limit int `json:"limit"`
	// Render selects how node-valued columns are serialized: "" (default)
	// as opaque node ids, "tree" as the node's subtree in the ssd text
	// syntax — what a remote client without access to the graph usually
	// wants. Rendering is against the snapshot the result set pinned.
	Render string `json:"render"`
}

// There are two NDJSON line shapes: every result row streams as
// {"row": {col: value}} (written by rowEncoder), and exactly one terminal
// statusLine reports how the stream ended — {"done": true, "rows": n} on
// success (with "truncated" when a limit cut it short), or {"error": "..."}
// when the cursor failed mid-stream. Clients must treat a stream without a
// terminal line as failed (the connection died).
type statusLine struct {
	Done      bool             `json:"done,omitempty"`
	Rows      int              `json:"rows"`
	Truncated bool             `json:"truncated,omitempty"`
	Error     string           `json:"error,omitempty"`
	Trace     *core.QueryTrace `json:"trace,omitempty"`
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(statusLine{Error: err.Error()})
}

// maxBody bounds a /query or /mutate request body. A longer body is refused
// whole with 413 — never cut to a prefix that still parses (and commits).
const maxBody = 1 << 20

// bodyError answers a failed body read: 413 when it ran past maxBody, else 400.
func bodyError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, fmt.Errorf("server: bad request body: %w", err))
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.inflight.Done()

	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		bodyError(w, err)
		return
	}
	if req.Query == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("server: empty query"))
		return
	}
	params, err := decodeParams(req.Params)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	// The request context already ends when the client disconnects; layer
	// the timeout (request's own, else server default) on top.
	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout == 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Read-your-writes: a request carrying an X-SSD-Seq token demands state
	// at least as new as that commit position. Wait briefly for the
	// replication stream to apply it; never serve older data silently.
	if tok, err := readSeqToken(r); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	} else if tok > 0 && s.db.CommitSeq() < tok {
		obsReplWaits.Inc()
		wait := s.cfg.ReplWait
		if wait <= 0 {
			wait = DefaultReplWait
		}
		wctx, cancel := context.WithTimeout(ctx, wait)
		err := s.db.WaitForSeq(wctx, tok)
		cancel()
		if err != nil {
			obsReplWaitTimeouts.Inc()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable,
				fmt.Errorf("server: replica at commit %d has not reached read token %d", s.db.CommitSeq(), tok))
			return
		}
	}

	stmt, err := s.db.PrepareCached(req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if stmt.Lang() == core.LangTransform {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("server: transform statements are not servable; use /mutate for writes"))
		return
	}

	// Trace when the client asked (?trace=1) or a slow-query threshold is
	// armed — the slow log wants the operator breakdown even though the
	// client did not ask to see it.
	wantTrace := r.URL.Query().Get("trace") == "1"
	var qtr *core.QueryTrace
	if wantTrace || s.cfg.SlowQuery > 0 {
		qtr = new(core.QueryTrace)
	}
	start := time.Now()
	// The accountable log position: captured before the query pins its
	// snapshot, so it can only understate what the read actually saw — a
	// token built from it is always satisfiable by this state or newer.
	pos := s.db.CommitSeq()
	var rows *core.Rows
	if qtr != nil {
		rows, err = stmt.QueryTraced(ctx, qtr, params...)
	} else {
		rows, err = stmt.Query(ctx, params...)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	defer rows.Close()

	limit := req.Limit
	if limit <= 0 || (s.cfg.MaxRows > 0 && limit > s.cfg.MaxRows) {
		limit = s.cfg.MaxRows
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(seqHeader, fmt.Sprint(pos))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w) // the terminal status line only
	cols := rows.Columns()
	renc := newRowEncoder(cols)

	// Scan destinations: node-valued columns are read as NodeIDs — printed
	// as decimal ids, or with render=tree formatted as their subtrees —
	// everything else as strings.
	renderTree := req.Render == "tree"
	dests := make([]any, len(cols))
	vals := make([]string, len(cols))
	nodes := make([]ssd.NodeID, len(cols))
	for i := range cols {
		if rows.IsNodeColumn(i) {
			dests[i] = &nodes[i]
		} else {
			dests[i] = &vals[i]
		}
	}
	n, truncated := 0, false

	// writeStatus emits the terminal NDJSON line. It closes the cursor
	// first (Close is idempotent; the deferred call becomes a no-op) so the
	// query trace is finalized — atom rows, elapsed time, pool activity —
	// before it is serialized, then feeds the slow-query log.
	writeStatus := func(st statusLine) {
		rows.Close()
		obsRowsStreamed.Add(int64(n))
		st.Rows = n
		if wantTrace {
			st.Trace = qtr
		}
		enc.Encode(st)
		if flusher != nil {
			flusher.Flush()
		}
		elapsed := time.Since(start)
		if slow := s.cfg.SlowQuery; slow > 0 && elapsed >= slow {
			obsSlowQueries.Inc()
			traceJSON, _ := json.Marshal(qtr)
			s.log.Warn("slow query",
				"query", req.Query,
				"params", paramsShape(params),
				"duration", elapsed,
				"rows", n,
				"trace", string(traceJSON))
		}
	}
	for rows.Next() {
		if err := rows.Scan(dests...); err != nil {
			writeStatus(statusLine{Error: err.Error()})
			return
		}
		renc.begin()
		for k, i := range renc.cols {
			switch {
			case !rows.IsNodeColumn(i):
				renc.str(k, vals[i])
			case renderTree:
				renc.str(k, ssd.Format(rows.Graph(), nodes[i]))
			default:
				renc.id(k, nodes[i])
			}
		}
		if _, err := w.Write(renc.end()); err != nil {
			return // client went away; ctx cancellation reaps the cursor
		}
		n++
		if flusher != nil && n&63 == 0 {
			flusher.Flush()
		}
		if limit > 0 && n >= limit {
			truncated = true
			break
		}
	}
	if err := rows.Err(); err != nil {
		writeStatus(statusLine{Error: err.Error()})
		return
	}
	writeStatus(statusLine{Done: true, Truncated: truncated})
}

// decodeParams converts the request's JSON parameter values to labels.
// Strings go through ssd.ParseLabel — the same literal syntax as
// ssdq's -param flag — falling back to a plain string label when the text
// is not a literal; numbers become int or float labels; booleans booleans.
func decodeParams(raw map[string]json.RawMessage) ([]core.Param, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	params := make([]core.Param, 0, len(raw))
	for name, rv := range raw {
		var v any
		dec := json.NewDecoder(bytes.NewReader(rv))
		dec.UseNumber()
		if err := dec.Decode(&v); err != nil {
			return nil, fmt.Errorf("server: parameter $%s: %w", name, err)
		}
		switch t := v.(type) {
		case string:
			l, err := ssd.ParseLabel(t)
			if err != nil {
				l = ssd.Str(t)
			}
			params = append(params, core.Param{Name: name, Value: l})
		case json.Number:
			if i, err := t.Int64(); err == nil {
				params = append(params, core.Param{Name: name, Value: ssd.Int(i)})
				break
			}
			f, err := t.Float64()
			if err != nil {
				return nil, fmt.Errorf("server: parameter $%s: bad number %q", name, t.String())
			}
			params = append(params, core.Param{Name: name, Value: ssd.Float(f)})
		case bool:
			params = append(params, core.Param{Name: name, Value: ssd.Bool(t)})
		default:
			return nil, fmt.Errorf("server: parameter $%s: unsupported JSON type %T", name, v)
		}
	}
	return params, nil
}

// mutateResponse is the POST /mutate reply. Seq is the replication position
// the commit landed at — the X-SSD-Seq read-your-writes token (also sent as
// a response header of that name).
type mutateResponse struct {
	Applied bool   `json:"applied"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Seq     uint64 `json:"seq"`
}

// handleMutate applies one mutation script (the ssdq script format, see
// mutate.ParseScript) as a single committed batch. With a WAL open on the
// database the batch is durable once the response is written. Concurrent
// readers keep streaming from their pinned snapshots; the commit publishes
// a new one.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.inflight.Done()

	if s.cfg.ReadOnly {
		s.rejectReadOnly(w, "mutations")
		return
	}
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	seq, err := s.db.MutateScriptSeq(string(src))
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	nodes, edges := s.db.Size()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(seqHeader, fmt.Sprint(seq))
	json.NewEncoder(w).Encode(mutateResponse{Applied: true, Nodes: nodes, Edges: edges, Seq: seq})
}

// rejectReadOnly answers 403 for write-shaped requests on a follower,
// naming the leader when configured so the client can redirect itself.
func (s *Server) rejectReadOnly(w http.ResponseWriter, what string) {
	msg := fmt.Sprintf("server: read-only replica does not accept %s", what)
	if s.cfg.LeaderURL != "" {
		msg += "; send them to the leader at " + s.cfg.LeaderURL
	}
	httpError(w, http.StatusForbidden, fmt.Errorf("%s", msg))
}

// checkpointResponse is the POST /checkpoint reply.
type checkpointResponse struct {
	Path      string `json:"path"`
	Seq       uint64 `json:"seq"`
	Bytes     int64  `json:"bytes"`
	Truncated int    `json:"truncated_batches"`
	WALBytes  int64  `json:"wal_bytes"`
}

// handleCheckpoint is the admin hook behind the background checkpointer:
// it forces a durable checkpoint right now — before a planned restart, or
// from an operator script watching wal_bytes in /healthz. Queries and
// mutations keep flowing while it runs; concurrent requests queue on the
// database's checkpoint lock.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.inflight.Done()
	if s.cfg.ReadOnly {
		s.rejectReadOnly(w, "checkpoint requests")
		return
	}
	if !s.db.Durable() {
		httpError(w, http.StatusConflict,
			fmt.Errorf("server: database has no durable directory (start with -data)"))
		return
	}
	info, err := s.db.Checkpoint()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(checkpointResponse{
		Path:      info.Path,
		Seq:       info.Seq,
		Bytes:     info.Bytes,
		Truncated: info.Truncated,
		WALBytes:  s.db.WALSize(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	nodes, edges := s.db.Size()
	s.gateMu.Lock()
	draining := s.draining
	s.gateMu.Unlock()
	role := s.cfg.Role
	if role == "" {
		role = "single"
	}
	w.Header().Set("Content-Type", "application/json")
	body := map[string]any{
		"status":          "ok",
		"nodes":           nodes,
		"edges":           edges,
		"draining":        draining,
		"durable":         s.db.Durable(),
		"wal_bytes":       s.db.WALSize(),
		"stmt_cache_size": s.db.StmtCacheLen(),
		"snapshot_seq":    s.db.SnapshotSeq(),
		"role":            role,
		"read_only":       s.cfg.ReadOnly,
		"commit_seq":      s.db.CommitSeq(),
	}
	if f := s.cfg.Follower; f != nil {
		body["repl_leader"] = f.LeaderURL()
		body["repl_connected"] = f.Connected()
		body["repl_leader_seq"] = f.LeaderSeq()
		body["repl_lag"] = f.Lag()
		body["repl_reconnects"] = f.Reconnects()
		body["repl_bootstraps"] = f.Bootstraps()
	}
	if ps, ok := s.db.PagePoolStats(); ok {
		body["paged"] = true
		body["pagepool_hits"] = ps.Hits
		body["pagepool_misses"] = ps.Misses
		body["pagepool_evictions"] = ps.Evictions
		body["pagepool_resident_bytes"] = ps.ResidentBytes
		body["pagepool_pinned_pages"] = ps.PinnedPages
	}
	json.NewEncoder(w).Encode(body)
}

// handleMetrics serves the process metrics registry: Prometheus text
// exposition by default, the JSON encoding with ?format=json. Server and
// Router both mount it. It is not gated on the drain latch — scrapes should
// keep working while a shutdown waits for in-flight cursors.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := obs.Default.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", obs.ContentTypePrometheus)
	snap.WritePrometheus(w)
}
