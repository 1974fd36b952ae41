package main

// The traced run: one client, a fixed prefix of the seeded stream, a span
// around each HTTP call and then the same input replayed one layer down at a
// time through the layers' public functions, a span around each. Spans are
// recorded from here, around the calls into each layer; spans inside the
// program are a later change. Counts are deltas of the process metrics
// registry (obs.Default) and of the page pool's own counters.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/pathexpr"
	"repro/internal/query"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/storage"
)

// span is one timed call. Parent is the span one layer up (0 = none); a
// layer's self time is its span's duration minus its children's. Replays run
// after the call they decompose, so parentage is by layer, not by interval.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"` // index in the traced prefix; -1 = outside it
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced run began
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write flushes them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		StartNS: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// add records a span whose duration was measured elsewhere (the program's
// own commit histogram), placed at start.
func (t *tracer) add(name string, parent, req int, start time.Time, d time.Duration) int {
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		StartNS: s, EndNS: s + int64(d)})
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer names every per-layer metric with its unit. A workload reports
// 0 for a layer it does not reach. bench/README.md says which end-to-end
// metric each one should move.
var perLayer = []struct{ name, unit string }{
	{"server.span_p50_ms", "ms"},
	{"server.query.self_ms", "ms"},
	{"server.encode_us_per_row", "us"},
	{"server.decode_us", "us"},
	{"server.mutate.self_ms", "ms"},
	{"server.router.self_ms", "ms"},
	{"server.router.write_ms", "ms"},
	{"server.router.ryw_read_ms", "ms"},
	{"server.repl.lag_p50_ms", "ms"},
	{"server.repl.lag_p95_ms", "ms"},
	{"server.repl.token_waits", "count"},
	{"server.repl.token_wait_timeouts", "count"},
	{"server.follower.bootstrap_s", "s"},
	{"core.prepare_cold_us", "us"},
	{"core.prepare_cached_us", "us"},
	{"core.stmt_cache.hit_ratio", "ratio"},
	{"core.plans_pooled_ratio", "ratio"},
	{"core.exec.sel_ms", "ms"},
	{"core.exec.path_ms", "ms"},
	{"core.exec.wide_ms", "ms"},
	{"core.commit_ms", "ms"},
	{"core.commit.other_ms", "ms"},
	{"core.checkpoint_s", "s"},
	{"core.checkpoint.count", "count"},
	{"core.checkpoint.bytes", "B"},
	{"core.open_s", "s"},
	{"core.recovery.replayed_batches", "count"},
	{"query.parse_us", "us"},
	{"query.plan_us", "us"},
	{"query.rows_examined_per_result", "ratio"},
	{"query.atom_ms.sel", "ms"},
	{"query.atom_ms.wide", "ms"},
	{"query.plans_index_backward", "count"},
	{"pathexpr.compile_us", "us"},
	{"pathexpr.traverse_ms", "ms"},
	{"mutate.parse_script_us", "us"},
	{"mutate.encode_us", "us"},
	{"mutate.apply_cow_us", "us"},
	{"mutate.wal_append_us", "us"},
	{"mutate.wal_fsync_us", "us"},
	{"mutate.wal_bytes_per_commit", "B"},
	{"index.label_apply_us", "us"},
	{"index.value_apply_us", "us"},
	{"index.build_ms", "ms"},
	{"dataguide.apply_delta_us", "us"},
	{"dataguide.fallback_ratio", "ratio"},
	{"dataguide.build_ms", "ms"},
	{"stats.apply_us", "us"},
	{"stats.build_ms", "ms"},
	{"storage.pagepool.hit_ratio", "ratio"},
	{"storage.pagepool.misses_per_op", "count"},
	{"storage.pagepool.evictions_per_op", "count"},
	{"storage.page_out_hit_ns", "ns"},
	{"storage.page_out_miss_us", "us"},
	{"storage.pagefile_write_ms", "ms"},
	{"storage.snapshot_read_ms", "ms"},
	{"storage.snapshot_encode_ms", "ms"},
	{"storage.snapshot_write_ms", "ms"},
	{"storage.disk_bytes_per_commit", "B"},
	{"storage.disk_bytes_per_user_byte", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
}

// traceWarmup is how many operations precede the untraced pass, unmeasured.
const traceWarmup = 20

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerRun is the state of one traced run.
type layerRun struct {
	cfg      config
	def      workloadDef
	c        *cluster
	db       *core.Database // the leader's handle
	cl       *client        // the one traced client, on the front URL
	backends []*client      // one per follower, for reads that bypass the router
	tr       *tracer
	dir      string
	sum      map[string]float64 // observations, by name
	n        map[string]float64
	calls    []float64 // ms inside the traced pass's client-facing HTTP calls, per operation

	// The replay side: structures the lower layers need, built here over the
	// leader's graph and kept in step with it commit by commit.
	store   ssd.GraphStore // what the query and pathexpr replays read through
	labelIx *index.LabelIndex
	valueIx *index.ValueIndex
	guide   *dataguide.Guide
	stats   *stats.Stats
	wal     *mutate.WAL // scratch log the mutate replay appends to

	pool             storage.PoolStats // the served pool's counters, summed over server spans
	backward         map[class]int     // index-backward atoms in each select class's plan
	examined, rows   float64           // ?trace=1 atom rows and result rows, select classes
	wideRows         float64
	walBytes         float64 // growth of the served log over the traced commits
	userBytes        float64 // script bytes sent
	commits          float64
	ckptBytes        []float64
	lags             []float64
	guideFallbacks   float64
	pathNodes        []ssd.NodeID // one path result: the nodes the storage probe touches
	ops              int
	attempted, fails int
}

func (r *layerRun) observe(name string, v float64) { r.sum[name] += v; r.n[name]++ }
func (r *layerRun) mean(name string) float64       { return ratio(r.sum[name], r.n[name]) }

// timed runs f inside a span and returns the span's id and duration.
func (r *layerRun) timed(name string, parent, req int, f func() error) (int, time.Duration, error) {
	id := r.tr.begin(name, parent, req)
	err := f()
	return id, r.tr.end(id), err
}

// layer is timed for a span that is one per-layer metric: the span is named
// after the metric with its unit suffix dropped, and the duration is observed
// under the metric in that unit.
func (r *layerRun) layer(metric string, parent, req int, f func() error) (int, time.Duration, error) {
	cut := strings.LastIndexByte(metric, '_')
	unit := map[string]time.Duration{"_us": time.Microsecond, "_ms": time.Millisecond}[metric[cut:]]
	id, d, err := r.timed(metric[:cut], parent, req, f)
	if err == nil {
		r.observe(metric, float64(d)/float64(unit))
	}
	return id, d, err
}

// registry reads of obs.Default: a counter's value, a histogram's sum and
// count.
type registry map[string]obs.MetricSnapshot

func readRegistry() registry {
	reg := registry{}
	for _, m := range obs.Default.Snapshot().Metrics {
		reg[m.Name] = m
	}
	return reg
}

func (a registry) counter(b registry, name string) float64 {
	return float64(a[name].Value - b[name].Value)
}

// hist is the mean observation, in seconds, between two readings, and
// how many observations that is.
func (a registry) hist(b registry, name string) (meanSeconds, count float64) {
	count = float64(a[name].Count - b[name].Count)
	return ratio(a[name].SumSeconds-b[name].SumSeconds, count), count
}

func runTraced(cfg config, def workloadDef, g *ssd.Graph, dir string) (*result, error) {
	reqs, cat, err := streams(def, g, cfg.seed)
	if err != nil {
		return nil, err
	}
	cfg.setups = 1
	def.topo.checkpoint = 0 // checkpoints come at fixed places in the prefix, not off a timer
	c, _, err := setUp(cfg, def, g, cat, dir)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	r := &layerRun{cfg: cfg, def: def, c: c, db: c.leader.db, dir: dir,
		tr: &tracer{t0: time.Now()}, sum: map[string]float64{}, n: map[string]float64{},
		backward: map[class]int{}}
	r.cl = newClient(0, c.frontURL, nil, false)
	defer r.cl.close()
	for _, f := range c.followers {
		direct := newClient(-1, f.front.url, nil, false)
		defer direct.close()
		r.backends = append(r.backends, direct)
	}

	// Warm up, then the traced pass over the fixed prefix, then the untraced
	// pass — the same operations (reads) or the next ones of the stream (a
	// commit cannot be sent twice) with no spans and no ?trace=1, the rate
	// the traced pass is compared with. The replay structures stay live
	// through both, so the collector paces the two passes alike.
	n := def.traceReqs
	stream := reqs[0]
	warm, prefix, bare := stream[:traceWarmup], stream[:n], stream[:n]
	if def.traffic != trafficRead {
		prefix, bare = stream[traceWarmup:traceWarmup+n], stream[traceWarmup+n:traceWarmup+2*n]
	}
	bareRun := func(rqs []*request) (total float64, err error) {
		for _, rq := range rqs {
			s, err := r.cl.do(rq)
			if err == nil {
				err = r.c.settle()
			}
			if err != nil {
				return 0, err
			}
			total += s.ms
		}
		return total, nil
	}
	if _, err := bareRun(warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := r.prepareReplay(); err != nil {
		return nil, err
	}
	defer r.closeReplay()
	before := readRegistry()
	for i, rq := range prefix {
		r.attempted++
		if err := r.traced(i, rq); err != nil {
			if r.fails++; r.fails == 1 {
				fmt.Fprintf(os.Stderr, "ssdload: traced request %d: first failure: %v\n", i, err)
			}
			continue
		}
		r.ops++
		if def.traffic != trafficRead && (i+1 == n/2 || i+1 == n) {
			if err := r.checkpoint(i); err != nil {
				return nil, err
			}
		}
	}
	if r.ops == 0 {
		return nil, fmt.Errorf("no traced operation succeeded")
	}
	after := readRegistry()
	untraced, err := bareRun(bare)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	if err := r.probes(cat); err != nil {
		return nil, err
	}
	c.noteAcks(r.cl)
	if _, err := recoveryStep(cfg, def, c); err != nil {
		return nil, err
	}
	if err := r.tr.write(cfg.spans); err != nil {
		return nil, err
	}

	res := &result{Attempted: r.attempted, Failed: r.fails, Correct: r.fails == 0, Metrics: map[string]metric{}}
	values := r.metrics(before, after, untraced)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	fmt.Printf("%s: traced run, seed %d, %d entries, 1 client, %d operations, %d spans in %s\n",
		cfg.workload, cfg.seed, def.entries, r.ops, len(r.tr.spans), cfg.spans)
	return res, nil
}

// prepareReplay builds what the lower-layer replays need, over the leader's
// current graph, timing the builds.
func (r *layerRun) prepareReplay() error {
	g := r.db.Graph()
	r.store = g
	if r.def.topo.poolBytes > 0 {
		// The query-layer replays read through their own page store: the
		// same layout and budget as the served one, separate counters.
		path := filepath.Join(r.dir, "replay.ssdp")
		if _, _, err := r.layer("storage.pagefile_write_ms", 0, -1, func() error {
			return storage.WritePageFile(path, g, storage.ClusterDFS, storage.DefaultPageSize)
		}); err != nil {
			return err
		}
		ps, err := storage.OpenPageFile(path, r.def.topo.poolBytes)
		if err != nil {
			return err
		}
		r.store = ps
	}
	r.layer("index.build_ms", 0, -1, func() error {
		r.labelIx, r.valueIx = index.BuildLabelIndex(g), index.BuildValueIndex(g)
		return nil
	})
	r.layer("stats.build_ms", 0, -1, func() error { r.stats = stats.Build(g); return nil })
	r.layer("dataguide.build_ms", 0, -1, func() error { r.guide = dataguide.MustBuild(g); return nil })
	var err error
	r.wal, err = mutate.OpenWAL(filepath.Join(r.dir, "replay.wal"), mutate.Fingerprint(g))
	return err
}

func (r *layerRun) closeReplay() {
	if ps, ok := r.store.(*storage.PageStore); ok {
		ps.Close()
	}
	if r.wal != nil {
		r.wal.Close()
	}
}

// traced runs one operation of the prefix: its HTTP calls first, each in a
// span, then the replays of the same input one layer down at a time.
func (r *layerRun) traced(i int, rq *request) error {
	switch rq.class {
	case clsSel, clsPath, clsWide:
		call, err := r.callRead(i, rq, 0, 0)
		if err != nil {
			return err
		}
		r.calls = append(r.calls, ms(call.d))
		return r.replayRead(i, rq, call)
	case clsIns, clsRel, clsDel:
		call, err := r.callWrite(i, rq, 0)
		if err != nil {
			return err
		}
		r.calls = append(r.calls, ms(call.d))
		return r.replayWrite(i, rq, call)
	}
	// clsRyw: the commit, the followers' lag behind its acknowledgement, the
	// tokened read; then the replays; then the same read untokened through
	// the router and straight at a follower — the difference is the router's
	// own time.
	pair := r.tr.begin("ryw", 0, i)
	defer r.tr.end(pair)
	write, err := r.callWrite(i, rq, pair)
	if err != nil {
		return err
	}
	acked := time.Now()
	lag := make(chan float64, len(r.c.followers)) // one send per follower
	for _, f := range r.c.followers {
		go func(db *core.Database) {
			ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
			defer cancel()
			if db.WaitForSeq(ctx, write.seq) != nil {
				lag <- -1
				return
			}
			lag <- ms(time.Since(acked))
		}(f.db)
	}
	read, err := r.callRead(i, rq.read, write.seq, pair)
	worst := 0.0
	for range r.c.followers {
		l := <-lag
		if l < 0 {
			err = fmt.Errorf("follower never reached commit %d", write.seq)
		}
		worst = max(worst, l)
	}
	if err != nil {
		return err
	}
	r.lags = append(r.lags, worst)
	r.calls = append(r.calls, ms(write.d+read.d))
	r.observe("server.router.write_ms", ms(write.d))
	r.observe("server.router.ryw_read_ms", ms(read.d))
	if err := r.replayWrite(i, rq, write); err != nil {
		return err
	}
	if err := r.replayRead(i, rq.read, read); err != nil {
		return err
	}

	_, viaRouter, err := r.timed("server.router.read", pair, i, func() error {
		_, err := r.cl.query(rq.read, 0, "")
		return err
	})
	if err != nil {
		return err
	}
	direct := r.backends[i%len(r.backends)]
	_, atBackend, err := r.timed("server.backend.read", pair, i, func() error {
		_, err := direct.query(rq.read, 0, "")
		return err
	})
	r.observe("server.router.self_ms", ms(viaRouter-atBackend))
	return err
}

// readCall is one /query call as the client saw it.
type readCall struct {
	span   int
	d      time.Duration
	status *queryStatus
	traced bool // sent with ?trace=1
}

// callRead sends one read inside a server span, with ?trace=1 unless it goes
// through the router, which forwards the path without its query string.
func (r *layerRun) callRead(i int, rq *request, token uint64, parent int) (readCall, error) {
	call := readCall{traced: rq.class != clsRyw}
	suffix := ""
	if call.traced {
		suffix = "?trace=1"
	}
	poolBefore, paged := r.db.PagePoolStats()
	var err error
	call.span, call.d, err = r.timed("server.query", parent, i, func() (err error) {
		call.status, err = r.cl.query(rq, token, suffix)
		return err
	})
	if err != nil {
		return call, err
	}
	if poolAfter, ok := r.db.PagePoolStats(); ok && paged {
		r.pool.Hits += poolAfter.Hits - poolBefore.Hits
		r.pool.Misses += poolAfter.Misses - poolBefore.Misses
		r.pool.Evictions += poolAfter.Evictions - poolBefore.Evictions
	}
	if call.traced && call.status.Trace == nil {
		return call, fmt.Errorf("query: ?trace=1 returned no trace")
	}
	return call, nil
}

// replayRead decomposes a read: the statement on the leader's handle (core,
// traced like the call was), then parse and plan (query) or compile and
// traverse (pathexpr) over the replay store.
func (r *layerRun) replayRead(i int, rq *request, call readCall) error {
	cls := classNames[rq.class]
	if rq.class == clsSel || rq.class == clsWide {
		atomUS := 0.0
		for _, a := range call.status.Trace.Atoms {
			atomUS += float64(a.TimeUS)
			r.examined += float64(a.Rows)
		}
		r.rows += float64(call.status.Rows)
		r.observe("query.atom_ms."+cls, atomUS/1000)
	}

	var nodes []ssd.NodeID
	cid, cd, err := r.timed("core.query", call.span, i, func() error {
		start := time.Now()
		stmt, err := r.db.PrepareCached(rq.query)
		if err != nil {
			return err
		}
		r.observe("core.prepare_cached_us", us(time.Since(start)))
		var qt *core.QueryTrace
		if call.traced {
			qt = new(core.QueryTrace)
		}
		rows, err := stmt.QueryTraced(context.Background(), qt, rq.param...)
		if err != nil {
			return err
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			if rq.class == clsPath && r.pathNodes == nil {
				var id ssd.NodeID
				if err := rows.Scan(&id); err != nil {
					return err
				}
				nodes = append(nodes, id)
			}
			n++
		}
		if err := rows.Err(); err != nil {
			return err
		}
		if n != rq.want {
			return fmt.Errorf("core replay of %s: %d rows, want %d", cls, n, rq.want)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if nodes != nil {
		r.pathNodes = nodes
	}
	r.observe("core.exec."+cls+"_ms", ms(cd))
	self := ms(call.d - cd)
	r.observe("server.query.self_ms", self)
	if rq.class == clsWide {
		r.observe("server.wide.self_ms", self)
		r.wideRows += float64(call.status.Rows)
	}

	lang, body := core.SniffLang(rq.query)
	if lang == core.LangPath {
		_, _, err = r.timed("pathexpr.eval", cid, i, func() error {
			start := time.Now()
			e, err := pathexpr.Parse(body)
			if err != nil {
				return err
			}
			au := pathexpr.Compile(e)
			r.observe("pathexpr.compile_us", us(time.Since(start)))
			start = time.Now()
			t := au.NewTraversal(r.store)
			t.Reset(r.store.Root())
			n := 0
			for _, ok := t.Next(); ok; _, ok = t.Next() {
				n++
			}
			r.observe("pathexpr.traverse_ms", ms(time.Since(start)))
			if n != rq.want {
				return fmt.Errorf("pathexpr replay: %d nodes, want %d", n, rq.want)
			}
			return nil
		})
		return err
	}
	_, _, err = r.timed("query.plan", cid, i, func() error {
		start := time.Now()
		q, err := query.Parse(body)
		if err != nil {
			return err
		}
		r.observe("query.parse_us", us(time.Since(start)))
		start = time.Now()
		p, err := query.NewPlan(q, r.store, query.PlanOptions{Label: r.labelIx, Guide: r.guide, Stats: r.stats})
		if err != nil {
			return err
		}
		r.observe("query.plan_us", us(time.Since(start)))
		if _, seen := r.backward[rq.class]; !seen {
			r.backward[rq.class] = 0
			for _, a := range p.Atoms() {
				if a.Access == query.AccessIndexBackward {
					r.backward[rq.class]++
				}
			}
		}
		return nil
	})
	return err
}

// writeCall is one /mutate call as the client saw it, with the commit span
// under it and the graph the commit was applied to.
type writeCall struct {
	span, commitSpan int
	d, commit        time.Duration
	seq              uint64
	base             *ssd.Graph
}

// callWrite sends one commit inside a server span. The commit span under it
// takes its duration from the program's own commit histogram; with followers
// that histogram also holds their applies, and the mean over whatever landed
// during the call stands in for this commit.
func (r *layerRun) callWrite(i int, rq *request, parent int) (writeCall, error) {
	call := writeCall{base: r.db.Graph()}
	wal0 := r.db.WALSize()
	before := readRegistry()
	start := time.Now()
	var err error
	call.span, call.d, err = r.timed("server.mutate", parent, i, func() (err error) {
		call.seq, err = r.cl.mutate(rq)
		return err
	})
	if err != nil {
		return call, err
	}
	commitS, _ := readRegistry().hist(before, "ssd_commit_duration_seconds")
	call.commit = time.Duration(commitS * float64(time.Second))
	call.commitSpan = r.tr.add("core.commit", call.span, i, start, call.commit)
	r.observe("core.commit_ms", ms(call.commit))
	r.walBytes += float64(r.db.WALSize() - wal0)
	r.userBytes += float64(len(rq.body))
	r.commits++
	return call, nil
}

// replayWrite decomposes a commit against the graph it was applied to: script
// parse under the server span; copy-on-write apply, log append (with the
// encode under it) and the maintenance applies under the commit span. The
// replay structures end up describing the graph the commit published.
func (r *layerRun) replayWrite(i int, rq *request, call writeCall) error {
	var b *mutate.Batch
	_, pd, err := r.layer("mutate.parse_script_us", call.span, i, func() (err error) {
		b, err = mutate.ParseScript(string(rq.body), call.base)
		return err
	})
	if err != nil {
		return err
	}
	r.observe("server.mutate.self_ms", ms(call.d-pd-call.commit))

	cid := call.commitSpan
	var g1 *ssd.Graph
	var res mutate.Result
	_, cow, err := r.layer("mutate.apply_cow_us", cid, i, func() (err error) {
		g1, res, err = mutate.ApplyCOW(call.base, b)
		return err
	})
	if err != nil {
		return err
	}
	size0 := r.wal.Size()
	aid, app, err := r.layer("mutate.wal_append_us", cid, i, func() error { return r.wal.Append(b) })
	if err != nil {
		return err
	}
	r.observe("mutate.wal_bytes_per_commit", float64(r.wal.Size()-size0))
	r.layer("mutate.encode_us", aid, i, func() error { mutate.EncodeBatch(b); return nil })

	_, lab, _ := r.layer("index.label_apply_us", cid, i, func() error { r.labelIx = r.labelIx.Apply(res.Delta); return nil })
	_, val, _ := r.layer("index.value_apply_us", cid, i, func() error { r.valueIx = r.valueIx.Apply(res.Delta); return nil })
	_, sta, _ := r.layer("stats.apply_us", cid, i, func() error { r.stats = r.stats.Apply(res.Delta); return nil })
	r.observe("core.commit.other_ms", ms(call.commit-cow-app-lab-val-sta))

	// The served handle never builds a DataGuide (nothing on the serving
	// path asks for one), so this apply is outside the commit span's sum.
	var ng *dataguide.Guide
	var ok bool
	r.layer("dataguide.apply_delta_us", cid, i, func() error { ng, ok = r.guide.ApplyDelta(g1, res.Delta, 0); return nil })
	if !ok {
		r.guideFallbacks++
		ng = dataguide.MustBuild(g1) // what a reader would pay lazily; not timed here
	}
	r.guide = ng
	return nil
}

// checkpoint forces one through the front URL, at a fixed place in the
// prefix so the count repeats.
func (r *layerRun) checkpoint(i int) error {
	_, _, err := r.timed("core.checkpoint", 0, i, func() error {
		_, err := r.cl.post("/checkpoint", nil, 0)
		return err
	})
	if err != nil {
		return err
	}
	var info struct {
		Bytes float64 `json:"bytes"`
	}
	if err := json.Unmarshal(r.cl.buf.Bytes(), &info); err != nil {
		return err
	}
	r.ckptBytes = append(r.ckptBytes, info.Bytes)
	return nil
}

// probes are the fixed measurements after the prefix: cold prepares, a
// no-row request (the server's per-request floor, which splits its self time
// into decode and per-row encode), page reads that are certain hits and
// certain misses, and the snapshot codec.
func (r *layerRun) probes(cat *readCatalog) error {
	if r.def.traffic != trafficWrite {
		for _, q := range []string{selQuery, pathQuery, wideQuery, rywQuery} {
			if _, _, err := r.layer("core.prepare_cold_us", 0, -1, func() error { _, err := r.db.Prepare(q); return err }); err != nil {
				return err
			}
		}
		none := &request{class: clsPath, query: "path: NoSuchLabel", body: queryBody("path: NoSuchLabel", nil)}
		direct := newClient(-1, r.c.leader.front.url, nil, false)
		defer direct.close()
		for i := 0; i < 50; i++ {
			sid, sd, err := r.timed("server.query", 0, -1, func() error { _, err := direct.query(none, 0, ""); return err })
			if err != nil {
				return err
			}
			_, cd, err := r.timed("core.query", sid, -1, func() error { _, err := expectRows(r.db, none); return err })
			if err != nil {
				return err
			}
			if i > 0 { // the first call opens the connection
				r.observe("server.decode_us", us(sd-cd))
			}
		}
	}
	if ps, ok := r.store.(*storage.PageStore); ok && len(r.pathNodes) > 0 {
		const again = 1000
		ps.Out(r.pathNodes[0])
		_, d, _ := r.timed("storage.page_out_hit", 0, -1, func() error {
			for i := 0; i < again; i++ {
				ps.Out(r.pathNodes[0])
			}
			return nil
		})
		r.observe("storage.page_out_hit_ns", float64(d)/again)
		// A pool of one page: nearly every node of the path result is on a
		// page the previous read evicted.
		tiny, err := storage.OpenPageFile(ps.Path(), 1)
		if err != nil {
			return err
		}
		defer tiny.Close()
		_, d, _ = r.timed("storage.page_out_miss", 0, -1, func() error {
			for _, n := range r.pathNodes {
				tiny.Out(n)
			}
			return nil
		})
		if misses := tiny.Stats().Misses; misses > 0 {
			r.observe("storage.page_out_miss_us", us(d)/float64(misses))
		}
	}

	snap := &storage.Snapshot{Graph: r.db.Graph(), Labels: r.labelIx, Values: r.valueIx, Stats: r.stats}
	_, enc, _ := r.layer("storage.snapshot_encode_ms", 0, -1, func() error { storage.EncodeSnapshot(snap); return nil })
	path := filepath.Join(r.dir, "replay.snap")
	_, wr, err := r.timed("storage.snapshot_write", 0, -1, func() error { _, err := storage.WriteSnapshotFile(path, snap); return err })
	if err != nil {
		return err
	}
	r.observe("storage.snapshot_write_ms", ms(wr-enc)) // WriteSnapshotFile encodes again
	_, _, err = r.layer("storage.snapshot_read_ms", 0, -1, func() error { _, err := storage.ReadSnapshotFile(path); return err })
	return err
}

// metrics folds the observations and registry deltas into the per-layer
// values.
func (r *layerRun) metrics(before, after registry, untracedMS float64) map[string]float64 {
	v := map[string]float64{}
	for name := range r.sum {
		v[name] = r.mean(name)
	}
	sort.Float64s(r.calls)
	v["server.span_p50_ms"] = quantile(r.calls, 0.5)
	server := 0.0
	for _, c := range r.calls {
		server += c
	}
	v["server.encode_us_per_row"] = ratio((r.sum["server.wide.self_ms"]-r.n["server.wide.self_ms"]*v["server.decode_us"]/1000)*1000, r.wideRows)
	sort.Float64s(r.lags)
	v["server.repl.lag_p50_ms"] = quantile(r.lags, 0.5)
	v["server.repl.lag_p95_ms"] = quantile(r.lags, 0.95)
	v["server.repl.token_waits"] = after.counter(before, "ssd_repl_token_waits_total")
	v["server.repl.token_wait_timeouts"] = after.counter(before, "ssd_repl_token_wait_timeouts_total")
	v["server.follower.bootstrap_s"] = ratio(seconds(r.c.bootstrap), float64(r.def.topo.followers))
	hits, misses := after.counter(before, "ssd_stmt_cache_hits_total"), after.counter(before, "ssd_stmt_cache_misses_total")
	v["core.stmt_cache.hit_ratio"] = ratio(hits, hits+misses)
	pooled, built := after.counter(before, "ssd_plans_pooled_total"), after.counter(before, "ssd_plans_built_total")
	v["core.plans_pooled_ratio"] = ratio(pooled, pooled+built)
	v["core.checkpoint_s"], v["core.checkpoint.count"] = after.hist(before, "ssd_checkpoint_duration_seconds")
	v["core.checkpoint.bytes"] = mean(r.ckptBytes)
	v["core.open_s"] = seconds(r.c.open)
	v["core.recovery.replayed_batches"] = float64(r.cfg.tail) // checked by recoveryStep
	v["query.rows_examined_per_result"] = ratio(r.examined, r.rows)
	for _, n := range r.backward {
		v["query.plans_index_backward"] += float64(n)
	}
	fsync, _ := after.hist(before, "ssd_wal_fsync_duration_seconds")
	v["mutate.wal_fsync_us"] = fsync * 1e6
	v["dataguide.fallback_ratio"] = ratio(r.guideFallbacks, r.n["dataguide.apply_delta_us"])
	v["storage.pagepool.hit_ratio"] = ratio(float64(r.pool.Hits), float64(r.pool.Hits+r.pool.Misses))
	v["storage.pagepool.misses_per_op"] = ratio(float64(r.pool.Misses), float64(r.ops))
	v["storage.pagepool.evictions_per_op"] = ratio(float64(r.pool.Evictions), float64(r.ops))
	disk := r.walBytes
	for _, b := range r.ckptBytes {
		disk += b
	}
	v["storage.disk_bytes_per_commit"] = ratio(disk, r.commits)
	v["storage.disk_bytes_per_user_byte"] = ratio(disk, r.userBytes)
	// The traced pass's HTTP calls carry ?trace=1 and are surrounded by span
	// bookkeeping; the untraced pass sent the same operations bare.
	v["obs.trace_overhead_frac"] = 1 - ratio(untracedMS, server)
	return v
}
