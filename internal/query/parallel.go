package query

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/ssd"
)

// This file is the morsel-driven parallel executor. The serial engine
// (exec.go) interprets a plan as a left-deep nested-loop join whose leading
// atom enumerates the "driver" rows; parallel execution keeps exactly that
// structure and splits it at the leading atom:
//
//   - a coordinator executor materializes the leading atom's rows ("seeds":
//     the destination node plus whatever label/path slots the atom's steps
//     bind), in the serial engine's order, partitioned into fixed-size
//     morsels;
//   - a pool of workers pulls morsels from a shared queue; each worker owns
//     a whole compiled Plan (its own automata, its own lazy-DFA caches, its
//     own slot registers — shared-nothing) and runs atoms[1:] for every
//     seed, batching the surviving rows;
//   - the consumer (the Cursor) merges per-morsel row batches in morsel
//     order through bounded channels.
//
// Because seeds are enumerated in serial order, morsels partition that
// order, each worker preserves within-morsel order, and the merge releases
// morsels in order, the parallel cursor yields rows in EXACTLY the serial
// engine's order — the result is byte-identical even before
// bisim.Canonicalize, which is what the engine cross-check suite pins.
//
// Errors follow the same path as rows: a worker failure (including a
// recovered panic) travels as a terminal batch through the morsel it
// occurred in, so the consumer observes it at the same point in the row
// stream where the serial engine would have — never as a silent truncation.
//
// Load balancing is the shared queue alone: morsel size is fixed up front
// (the caller's morselSize, or Plan.ParallelHint's, which gives every worker
// several morsels), and an idle worker simply pulls the next one.

const (
	// DefaultMorselSize is the number of leading-atom seed rows per morsel
	// when neither the caller nor the cost model sizes them. Small enough to
	// load-balance skewed per-seed work, large enough to amortize channel
	// traffic.
	DefaultMorselSize = 128

	// parBatchRows caps the rows buffered into one merge batch.
	parBatchRows = 256

	// morselResultBuf is the per-morsel result channel capacity, in batches.
	// Workers run at most this far ahead of the in-order merge within one
	// morsel before blocking — the memory bound of the merge.
	morselResultBuf = 4
)

// seedRow is one materialized row of the leading atom: the bound tree node
// plus the label/path slots the atom's steps bind (in leadSlots order).
type seedRow struct {
	tree   ssd.NodeID
	labels []ssd.Label
	paths  [][]ssd.Label
}

// leadSlots lists the register slots the leading atom binds beyond its
// destination tree slot — the part of a seed row that must be shipped to
// workers alongside the node.
type leadSlots struct {
	labels []int
	paths  []int
}

func (p *Plan) leadSlots() leadSlots {
	var ls leadSlots
	if len(p.atoms) == 0 {
		return ls
	}
	for _, st := range p.atoms[0].steps {
		switch st.kind {
		case stepLabelVar:
			if st.slot >= 0 && !st.filter {
				ls.labels = append(ls.labels, st.slot)
			}
		case stepPathVar:
			if st.slot >= 0 {
				ls.paths = append(ls.paths, st.slot)
			}
		}
	}
	return ls
}

// rowBatch is a flat, struct-of-arrays block of merged result rows: row r's
// tree slots live at trees[r*nT:(r+1)*nT], and likewise for labels/paths.
// A batch with err != nil is terminal for the whole execution.
type rowBatch struct {
	n      int
	trees  []ssd.NodeID
	labels []ssd.Label
	paths  [][]ssd.Label
	err    error
}

// morsel is one unit of worker work: a contiguous run of seeds plus the
// channel its row batches are delivered on.
type morsel struct {
	seeds []seedRow
	out   chan rowBatch
}

// parShared is what the coordinator and the workers share besides the
// morsel queue: the query's ExecTrace, when non-nil. Each goroutine records
// into a private trace and folds it in under traceMu at exit; the consumer
// reads the merged result only after Close's wg.Wait, so reads never race
// the merges.
type parShared struct {
	trace   *ExecTrace
	traceMu sync.Mutex
}

// mergeTrace folds a goroutine-local trace into the query trace.
func (sh *parShared) mergeTrace(o *ExecTrace) {
	sh.traceMu.Lock()
	sh.trace.merge(o)
	sh.traceMu.Unlock()
}

// CursorParallel opens a streaming execution of the plan across
// len(workers) worker executors, one per supplied plan. Every worker plan
// must be compiled from the same query, graph and PlanOptions as p (the
// statement layer's plan pool hands out exactly such siblings; NewPlan with
// identical arguments is deterministic). p itself is used only to seed the
// leading atom, so p plus workers may all come from one pool checkout.
//
// Plans with fewer than two atoms, or an empty worker set, run on the
// serial executor: there is no join work to fan out. morselSize <= 0 asks
// the plan's cost model for a size (Plan.ParallelHint), falling back to
// DefaultMorselSize when the model has no estimate. Row order, and
// therefore the materialized result, is identical to the serial engine's.
//
// A non-nil tr (reinitialized for this plan) records operator-level
// statistics: per-atom rows and wall time, summed across workers, plus the
// pool shape — workers, morsel size, morsels executed and consumer merge
// stalls. The trace is complete only after the
// cursor is closed (Close waits for a pool to quiesce).
//
//ssd:mustclose
func (p *Plan) CursorParallel(ctx context.Context, params map[string]ssd.Label, workers []*Plan, morselSize int, tr *ExecTrace) (*Cursor, error) {
	vals, err := p.paramVals(params)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.init(len(p.atoms))
	}
	if len(workers) == 0 || len(p.atoms) < 2 {
		ex := p.exec(ctx, vals)
		ex.trace = tr
		return &Cursor{p: p, regs: &ex.regs, ex: ex}, nil
	}
	for i, w := range workers {
		if err := p.compatible(w); err != nil {
			return nil, fmt.Errorf("query: worker plan %d: %w", i, err)
		}
	}
	if morselSize <= 0 {
		n := len(workers)
		if n < 2 {
			n = 2
		}
		if _, hint := p.ParallelHint(n); hint > 0 {
			morselSize = hint
		} else {
			morselSize = DefaultMorselSize
		}
	}

	if tr != nil {
		tr.Workers = len(workers)
		tr.MorselSize = morselSize
	}
	pc := newParCursor(ctx, p, vals, workers, morselSize, tr)
	return &Cursor{p: p, regs: &pc.regs, par: pc}, nil
}

// compatible checks that w is a compiled sibling of p: same shape, same
// slot tables, same graph. It guards against handing the worker pool plans
// for a different query or snapshot.
func (p *Plan) compatible(w *Plan) error {
	switch {
	case w == nil:
		return fmt.Errorf("nil plan")
	case w.g != p.g:
		return fmt.Errorf("compiled against a different graph")
	case len(w.atoms) != len(p.atoms),
		len(w.treeName) != len(p.treeName),
		len(w.labelName) != len(p.labelName),
		len(w.pathName) != len(p.pathName),
		len(w.paramName) != len(p.paramName):
		return fmt.Errorf("compiled from a different query")
	}
	return nil
}

// parCursor is the consumer half of the parallel scan: it owns the merge
// state and exposes one row at a time through regs, mirroring the serial
// executor's register contract.
type parCursor struct {
	p    *Plan
	regs regs

	ctx    context.Context // caller's context (nil allowed)
	cancel context.CancelFunc
	wg     sync.WaitGroup

	order chan chan rowBatch // per-morsel result channels, in seed order
	cur   chan rowBatch      // current morsel's channel, nil between morsels
	batch rowBatch
	ri    int // next row within batch

	err    error
	done   bool
	closed bool

	trace *ExecTrace // query trace; nil when tracing is off
}

func newParCursor(ctx context.Context, p *Plan, vals []ssd.Label, workers []*Plan, morselSize int, tr *ExecTrace) *parCursor {
	parent := ctx
	if parent == nil {
		parent = context.Background()
	}
	workCtx, cancel := context.WithCancel(parent)
	pc := &parCursor{
		p:      p,
		ctx:    ctx,
		cancel: cancel,
		order:  make(chan chan rowBatch, 2*len(workers)+2),
		regs: regs{
			trees:  make([]ssd.NodeID, len(p.treeName)),
			labels: make([]ssd.Label, len(p.labelName)),
			paths:  make([][]ssd.Label, len(p.pathName)),
		},
	}
	ls := p.leadSlots()
	morsels := make(chan morsel, len(workers))
	sh := &parShared{trace: tr}
	pc.trace = tr

	// Workers: one executor per plan, shared-nothing. Each runs atoms[1:]
	// from every seed of its morsel, in order.
	for _, wp := range workers {
		pc.wg.Add(1)
		go func(wp *Plan) {
			defer pc.wg.Done()
			runWorker(workCtx, wp, vals, ls, morsels, sh)
		}(wp)
	}

	// Coordinator: drive the leading atom serially, slice its rows into
	// morsels, and publish each morsel's result channel in order. Closing
	// order (after all morsels are enqueued) is the consumer's end-of-
	// stream signal; closing morsels releases idle workers.
	pc.wg.Add(1)
	go func() {
		defer pc.wg.Done()
		defer close(pc.order)
		defer close(morsels)
		seedEx := p.exec(workCtx, vals)
		seedEx.relaxedPoll = true
		seedEx.atoms = seedEx.atoms[:1] // drive only the leading atom
		var seedTr *ExecTrace
		if sh.trace != nil {
			// Trace into a coordinator-local recorder (full atom length;
			// only the leading atom's span gets written) and fold it in at
			// exit like any worker.
			seedTr = new(ExecTrace)
			seedTr.init(len(p.atoms))
			seedEx.trace = seedTr
		}
		defer func() {
			// Undo the truncation before recycling: the next execution of
			// this plan gets the full atom list back.
			seedEx.atoms = seedEx.atoms[:len(p.atoms)]
			seedEx.trace = nil
			seedEx.release()
			if seedTr != nil {
				sh.mergeTrace(seedTr)
			}
		}()
		dstSlot := p.atoms[0].dstSlot

		seeds := make([]seedRow, 0, morselSize)
		emit := func() bool {
			out := make(chan rowBatch, morselResultBuf)
			select {
			case pc.order <- out:
			case <-workCtx.Done():
				return false
			}
			if seedTr != nil {
				seedTr.Morsels++
			}
			select {
			case morsels <- morsel{seeds: seeds, out: out}:
			case <-workCtx.Done():
				return false
			}
			seeds = make([]seedRow, 0, morselSize)
			return true
		}
		for seedEx.Next() {
			s := seedRow{tree: seedEx.regs.trees[dstSlot]}
			if len(ls.labels) > 0 {
				s.labels = make([]ssd.Label, len(ls.labels))
				for i, slot := range ls.labels {
					s.labels[i] = seedEx.regs.labels[slot]
				}
			}
			if len(ls.paths) > 0 {
				s.paths = make([][]ssd.Label, len(ls.paths))
				for i, slot := range ls.paths {
					s.paths[i] = seedEx.regs.paths[slot]
				}
			}
			seeds = append(seeds, s)
			if len(seeds) >= morselSize && !emit() {
				return
			}
		}
		if len(seeds) > 0 && !emit() {
			return
		}
		if err := seedEx.err; err != nil {
			// Seed-phase failure: deliver it as a terminal morsel so the
			// consumer sees every row produced before the failure, then the
			// error — the same prefix semantics as the serial engine.
			out := make(chan rowBatch, 1)
			out <- rowBatch{err: err}
			close(out)
			select {
			case pc.order <- out:
			case <-workCtx.Done():
			}
		}
	}()
	return pc
}

// runWorker executes morsels until the queue is closed. Any failure of the
// worker's executor — cancellation or a recovered panic — is delivered as a
// terminal batch on the failing morsel's channel; the worker then keeps
// draining the queue, delivering the terminal error on every morsel it
// drains, so the coordinator is never blocked on a dead consumer and no
// morsel's channel ever closes without its rows or an error.
func runWorker(ctx context.Context, wp *Plan, vals []ssd.Label, ls leadSlots, morsels <-chan morsel, sh *parShared) {
	ex := wp.exec(ctx, vals)
	ex.base = 1
	ex.relaxedPoll = true
	if sh.trace != nil {
		wtr := new(ExecTrace)
		wtr.init(len(wp.atoms))
		ex.trace = wtr
		defer sh.mergeTrace(wtr) // runs after release; merge is still safe —
		// the trace is worker-local and the consumer reads only post-Close.
	}
	defer func() {
		ex.trace = nil
		ex.release() // visible to the next checkout via Close's wg.Wait
	}()
	for m := range morsels {
		if ex.err != nil {
			// m.out is freshly created and this worker is its only sender,
			// so the buffered send cannot block.
			m.out <- rowBatch{err: ex.err}
			close(m.out)
			continue
		}
		alive := workMorsel(ctx, ex, wp, ls, m)
		// Morsel boundary: drop page pins accumulated on the hot path so a
		// paged store can evict between morsels. The accessor stays usable —
		// the next morsel simply re-pins on first touch.
		ex.acc.Release()
		if !alive {
			return // work context cancelled mid-send: the consumer is gone
		}
	}
}

// workMorsel runs atoms[1:] for every seed of m in order, delivering row
// batches on m.out and closing it. It reports false only when the work
// context is cancelled mid-send. Executor failures arrive via ex.err (the
// executor recovers its own panics); a panic in the merge machinery itself
// is additionally recovered here, so a worker can never die without
// terminating its morsel's channel.
func workMorsel(ctx context.Context, ex *executor, wp *Plan, ls leadSlots, m morsel) (alive bool) {
	defer close(m.out)
	alive = true
	var b rowBatch
	send := func(batch rowBatch) bool {
		select {
		case m.out <- batch:
			return true
		case <-ctx.Done():
			alive = false
			return false
		}
	}
	defer func() {
		if r := recover(); r != nil {
			ex.fail(fmt.Errorf("query: parallel worker panic: %v", r))
			send(rowBatch{err: ex.err})
		}
	}()
	nT, nL, nP := len(wp.treeName), len(wp.labelName), len(wp.pathName)
	dstSlot := wp.atoms[0].dstSlot
	for _, s := range m.seeds {
		ex.regs.trees[dstSlot] = s.tree
		for i, slot := range ls.labels {
			ex.regs.labels[slot] = s.labels[i]
		}
		for i, slot := range ls.paths {
			ex.regs.paths[slot] = s.paths[i]
		}
		ex.started, ex.done = false, false
		for ex.Next() {
			b.trees = append(b.trees, ex.regs.trees[:nT]...)
			b.labels = append(b.labels, ex.regs.labels[:nL]...)
			b.paths = append(b.paths, ex.regs.paths[:nP]...)
			b.n++
			if b.n >= parBatchRows {
				if !send(b) {
					return
				}
				b = rowBatch{}
			}
		}
		if ex.err != nil {
			b.err = ex.err
			break
		}
	}
	if b.n > 0 || b.err != nil {
		send(b)
	}
	return
}

// Next advances the merge to the next row, copying it into regs. It returns
// false on exhaustion, terminal error, or cancellation; Err distinguishes.
func (pc *parCursor) Next() bool {
	if pc.done {
		return false
	}
	var ctxDone <-chan struct{}
	if pc.ctx != nil {
		if err := pc.ctx.Err(); err != nil {
			return pc.finish(err)
		}
		ctxDone = pc.ctx.Done()
	}
	for {
		if pc.ri < pc.batch.n {
			r := pc.ri
			pc.ri++
			nT, nL, nP := len(pc.regs.trees), len(pc.regs.labels), len(pc.regs.paths)
			copy(pc.regs.trees, pc.batch.trees[r*nT:(r+1)*nT])
			copy(pc.regs.labels, pc.batch.labels[r*nL:(r+1)*nL])
			copy(pc.regs.paths, pc.batch.paths[r*nP:(r+1)*nP])
			return true
		}
		if pc.cur == nil {
			select {
			case c, ok := <-pc.order:
				if !ok {
					return pc.finish(nil) // clean exhaustion
				}
				pc.cur = c
			case <-ctxDone:
				return pc.finish(pc.ctx.Err())
			}
			continue
		}
		var b rowBatch
		var ok, received bool
		if pc.trace != nil {
			// Count a merge stall when the in-order batch isn't ready yet —
			// the consumer-side signal that workers, not the merge, are the
			// bottleneck. Only attempted under tracing; the untraced path
			// keeps the single blocking select.
			select {
			case b, ok = <-pc.cur:
				received = true
			default:
				pc.trace.MergeStalls++
			}
		}
		if !received {
			select {
			case b, ok = <-pc.cur:
			case <-ctxDone:
				return pc.finish(pc.ctx.Err())
			}
		}
		if !ok {
			pc.cur = nil
			continue
		}
		if b.err != nil {
			return pc.finish(b.err)
		}
		pc.batch, pc.ri = b, 0
	}
}

// finish records the terminal state and tears the pool down. The workers
// notice the cancellation within one executor pull and exit; their blocked
// sends all select on the work context.
func (pc *parCursor) finish(err error) bool {
	pc.done = true
	if pc.err == nil {
		pc.err = err
	}
	pc.cancel()
	return false
}

func (pc *parCursor) Err() error { return pc.err }

// Close stops the pool and waits for the coordinator and every worker to
// exit, so the plans they borrowed can be reused (or returned to a pool)
// safely. Idempotent; subsequent Next calls report exhaustion.
func (pc *parCursor) Close() {
	if pc.closed {
		return
	}
	pc.closed = true
	pc.done = true
	pc.cancel()
	pc.wg.Wait() // every worker's and the coordinator's trace is merged
}
