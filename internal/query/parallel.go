package query

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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
// Adaptive splitting: morsel size is fixed up front (the caller's morselSize,
// or the cost model's seed estimate via Plan.ParallelHint), but per-seed
// fan-out is only an estimate. When a worker observes a morsel producing far
// more rows per seed than the plan predicted, it hands off the unprocessed
// seed suffix as a new morsel to an IDLE worker — a rendezvous on an
// unbuffered channel, so the handoff happens only if another worker is
// parked waiting for work at that instant — and hands the consumer a
// continuation channel in its final batch. Order preservation survives
// because a split never reorders seeds: the suffix morsel's rows are
// delivered on the continuation channel, which the merge switches to exactly
// where the original morsel's rows end — the concatenation is the same
// seed-order row stream, just produced by two workers. Splits chain: a
// suffix morsel may itself split again.

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

	// splitMinSeedsLeft is the smallest seed suffix worth splitting off —
	// below it the handoff costs more than finishing inline.
	splitMinSeedsLeft = 2
)

// Split tuning. Variables rather than constants only so tests can force the
// splitting path on small fixtures; production treats them as constants.
var (
	// splitFactor is how far observed per-seed fan-out must exceed the cost
	// model's estimate before a worker splits off its remaining seeds.
	splitFactor = 8.0

	// splitMinRows is the minimum rows a morsel must have produced before a
	// worker considers splitting it, regardless of the estimate ratio.
	splitMinRows int64 = 512
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
// A batch with err != nil is terminal for the whole execution. A batch with
// cont != nil is terminal for its channel: the morsel was split, and the
// rows for its remaining seeds follow on cont.
type rowBatch struct {
	n      int
	trees  []ssd.NodeID
	labels []ssd.Label
	paths  [][]ssd.Label
	err    error
	cont   chan rowBatch
}

// morsel is one unit of worker work: a contiguous run of seeds plus the
// channel its row batches are delivered on.
type morsel struct {
	seeds []seedRow
	out   chan rowBatch
}

// parShared is the state a worker pool shares for adaptive morsel splitting:
// the split rendezvous channel, plus the accounting that tells idle workers
// when no more work — in flight or future — can possibly arrive.
//
// Liveness argument for splits: the splits channel is UNBUFFERED and the
// splitting worker's send is non-blocking, so a split happens only when an
// idle worker is parked on a receive at that instant — every split morsel
// has an owner from the moment it exists, and there is never an orphaned
// split waiting in a queue. From there the usual progress argument applies:
// a worker only ever sends on the channel of the morsel it owns, so the
// owner of the merge-front morsel can always make progress (the merge drains
// exactly that channel), which in turn eventually unblocks every worker
// parked on a bounded send for a later morsel. (A buffered split queue
// breaks this: a queued split at the merge front can be stranded while every
// worker is blocked sending for later-positioned morsels — a deadlock.)
// Splitting only when a worker is idle is also exactly when splitting helps;
// if the whole pool is busy, handing work around buys nothing.
type parShared struct {
	splits   chan morsel   // split handoff rendezvous; never closed
	pending  atomic.Int64  // morsels emitted or split, not yet completed
	seeding  atomic.Bool   // coordinator still producing primary morsels
	done     chan struct{} // closed once seeding ended and pending hit zero
	doneOnce sync.Once
	nsplits  atomic.Int64 // splits performed; observability and tests

	splitMisses atomic.Int64 // split attempts that found no idle worker
	nmorsels    atomic.Int64 // morsels created (primary emits + splits)

	// trace, when non-nil, is the query's ExecTrace. The coordinator and
	// each worker record into private traces and fold them in under traceMu
	// at exit; the consumer reads the merged result only after Close's
	// wg.Wait, so reads never race the merges.
	trace   *ExecTrace
	traceMu sync.Mutex
}

// mergeTrace folds a goroutine-local trace into the query trace.
func (sh *parShared) mergeTrace(o *ExecTrace) {
	sh.traceMu.Lock()
	sh.trace.merge(o)
	sh.traceMu.Unlock()
}

func newParShared() *parShared {
	sh := &parShared{
		splits: make(chan morsel),
		done:   make(chan struct{}),
	}
	sh.seeding.Store(true)
	return sh
}

// morselDone retires one unit of pending work.
func (sh *parShared) morselDone() {
	if sh.pending.Add(-1) == 0 && !sh.seeding.Load() {
		sh.doneOnce.Do(func() { close(sh.done) })
	}
}

// finishSeeding marks the primary morsel stream exhausted. Between it and
// morselDone, whichever observes the final state (no seeding, no pending)
// closes done; a split increments pending before its parent morsel retires,
// so pending can never transiently read zero while work is still queued.
func (sh *parShared) finishSeeding() {
	sh.seeding.Store(false)
	if sh.pending.Load() == 0 {
		sh.doneOnce.Do(func() { close(sh.done) })
	}
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
// pool shape — workers, morsel size, morsels executed, adaptive splits and
// misses, and consumer merge stalls. The trace is complete only after the
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
	sh     *parShared

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
	sh := newParShared()
	sh.trace = tr
	pc.sh = sh
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
		defer sh.finishSeeding()
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
			sh.pending.Add(1)
			sh.nmorsels.Add(1)
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

// runWorker executes morsels until both the primary queue is closed and no
// split work remains (sh.done). A worker parked on the pull select is the
// rendezvous receiver that makes another worker's split possible — see
// parShared for the liveness argument. Any failure of the worker's executor —
// cancellation or a recovered panic — is delivered as a terminal batch on
// the failing morsel's channel; the worker then keeps draining both sources,
// delivering the terminal error on every morsel it drains, so the
// coordinator is never blocked on a dead consumer.
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
	open := true // primary morsel queue still open
	for {
		var m morsel
		var ok bool
		if open {
			select {
			case m, ok = <-morsels:
				if !ok {
					open = false
					continue
				}
			case m = <-sh.splits: // never closed; a receive is a real morsel
			case <-ctx.Done():
				return
			}
		} else {
			select {
			case m = <-sh.splits:
			case <-sh.done:
				return
			case <-ctx.Done():
				return
			}
		}
		if ex.err != nil {
			// Drain, but deliver the terminal error rather than closing the
			// channel empty: a drained split can precede the failing morsel
			// in merge order, and an empty close there would make the merge
			// skip that seed range's rows and keep yielding later rows — a
			// silent gap instead of the serial engine's prefix semantics.
			// m.out is freshly created and this worker is its only sender,
			// so the buffered send cannot block.
			m.out <- rowBatch{err: ex.err}
			close(m.out)
			sh.morselDone()
			continue
		}
		alive := workMorsel(ctx, ex, wp, ls, m, sh)
		// Morsel boundary: drop page pins accumulated on the hot path so a
		// paged store can evict between morsels. The accessor stays usable —
		// the next morsel simply re-pins on first touch.
		ex.acc.Release()
		sh.morselDone()
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
//
// When the morsel's observed fan-out far exceeds the plan's per-seed
// estimate (see splitFactor/splitMinRows), the unprocessed seed suffix is
// split off through sh.splits for another worker, and the final batch on
// m.out carries the suffix's channel as its continuation.
func workMorsel(ctx context.Context, ex *executor, wp *Plan, ls leadSlots, m morsel, sh *parShared) (alive bool) {
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
	estPerSeed := wp.perSeedEst()
	var rowsOut int64
	for k, s := range m.seeds {
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
			rowsOut++
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
		// Adaptive split: this morsel is producing far more rows per seed
		// than the plan estimated, so try to hand the remaining seeds to an
		// idle worker. The non-blocking send on the unbuffered splits
		// channel succeeds only if a worker is parked on its pull select
		// right now — the rendezvous that guarantees every split morsel is
		// owned the moment it exists (see parShared). The final batch's
		// cont field tells the merge where the suffix's rows continue; seed
		// order is untouched, so the merged stream is identical to the
		// unsplit one.
		if remaining := len(m.seeds) - k - 1; remaining >= splitMinSeedsLeft &&
			rowsOut >= splitMinRows &&
			float64(rowsOut) > splitFactor*estPerSeed*float64(k+1) {
			cont := make(chan rowBatch, morselResultBuf)
			sh.pending.Add(1)
			select {
			case sh.splits <- morsel{seeds: m.seeds[k+1:], out: cont}:
				sh.nsplits.Add(1)
				sh.nmorsels.Add(1)
				obsSplits.Inc()
				b.cont = cont
				send(b)
				return
			default:
				// No idle worker: the whole pool is saturated, so a handoff
				// would not buy anything anyway. Keep going inline.
				sh.pending.Add(-1)
				sh.splitMisses.Add(1)
				obsSplitMisses.Inc()
			}
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
		if pc.batch.cont != nil {
			// The producing worker split this morsel mid-way: the rows for
			// its remaining seeds continue on cont, in the same seed order.
			pc.cur = pc.batch.cont
			pc.batch, pc.ri = rowBatch{}, 0
			continue
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
	pc.wg.Wait()
	if pc.trace != nil {
		// Pool has quiesced: every worker's per-atom trace is merged and the
		// shared counters are final.
		pc.trace.Splits = pc.sh.nsplits.Load()
		pc.trace.SplitMisses = pc.sh.splitMisses.Load()
		pc.trace.Morsels = pc.sh.nmorsels.Load()
	}
}
