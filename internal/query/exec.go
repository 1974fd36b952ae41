package query

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/index"
	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

// This file is the pull-based iterator executor: the run-many half of the
// planner/executor split. A Plan is interpreted as a left-deep nested-loop
// join of its atoms; each atom is itself a pipeline of step cursors
// (Volcano-style Next() operators) over the lower layers' iterator surfaces:
// pathexpr.Traversal for regex steps, index posting lists and DataGuide
// extents for root-anchored scans, and plain edge slices for label-variable
// steps. All variable bindings live in one flat slot array (regs) that the
// operators overwrite in place — the hot path allocates nothing per binding,
// which is the executor's whole advantage over the map-cloning reference
// evaluator (internal/oracle).

// regs is the flat binding array: one entry per slot, indexed by the slot
// numbers the planner assigned.
type regs struct {
	trees  []ssd.NodeID
	labels []ssd.Label
	paths  [][]ssd.Label
}

// executor evaluates a Plan. Obtain one through Plan.Cursor; drive it with
// Next and read bindings from regs (the Cursor's slot accessors).
type executor struct {
	p *Plan
	// g is the executor's read view of the plan's store: the store's
	// pinning accessor when it has one (paged stores), so every adjacency
	// read on the hot path goes through a small ring of pinned pages. acc
	// is the same object, typed for Release — pins drop at cursor close.
	g      ssd.GraphStore
	acc    ssd.StoreAccessor
	regs   regs
	params []ssd.Label // one value per plan parameter slot

	atoms   []atomState
	travs   []*pathexpr.Traversal // one per planStep id, lazily created
	started bool
	done    bool

	// trace records per-atom row counts and iterator wall time when non-nil.
	// ExplainAnalyze and opt-in query tracing enable it; the normal path
	// keeps the nil check and nothing else — no allocation, no clock reads.
	trace *ExecTrace

	// Termination: err records the failure that ended iteration early —
	// context cancellation, or any panic the pull loop recovered (a stale
	// index referencing nodes the graph no longer has, a corrupted plan).
	// Exhaustion with err == nil is the only clean completion. ctx is
	// polled once per pull plus strided inside the join loop.
	ctx   context.Context
	err   error
	polls uint32
}

// exec prepares an executor for the plan; Plan.Cursor is the public entry
// (it validates parameter bindings first — stepParam and termParam index
// the params slice unguarded). The executor is single-use per result set;
// a closed cursor releases its executor back to the plan's idle slot, so
// repeat executions of a pooled plan reuse the scratch arrays, pooled
// traversals and materialized scans instead of reallocating them.
func (p *Plan) exec(ctx context.Context, params []ssd.Label) *executor {
	if ex := p.idleEx; ex != nil {
		p.idleEx = nil
		ex.reset(ctx, params)
		return ex
	}
	acc := ssd.AccessorFor(p.g)
	ex := &executor{
		p:      p,
		g:      acc,
		acc:    acc,
		ctx:    ctx,
		params: params,
		regs: regs{
			trees:  make([]ssd.NodeID, len(p.treeName)),
			labels: make([]ssd.Label, len(p.labelName)+p.nExistsLocals),
			paths:  make([][]ssd.Label, len(p.pathName)),
		},
		travs: make([]*pathexpr.Traversal, p.nSteps),
		atoms: make([]atomState, len(p.atoms)),
	}
	for i := range ex.atoms {
		ex.atoms[i].a = p.atoms[i]
	}
	return ex
}

// reset rewinds a recycled executor for a fresh execution. Scratch state
// that clears itself on reuse (the node sets of dedup and traversals, each
// cleared when its atom opens or its traversal resets) or is invariant for
// the plan's graph (materialized root-anchored scans) is deliberately kept;
// everything run-scoped is cleared.
func (ex *executor) reset(ctx context.Context, params []ssd.Label) {
	ex.ctx = ctx
	ex.params = params
	ex.started, ex.done = false, false
	ex.trace = nil
	ex.err = nil
	ex.polls = 0
	for _, t := range ex.travs {
		if t != nil {
			t.SetContext(ctx)
		}
	}
}

// release unpins whatever pages the executor's accessor holds and hands
// the executor back to its plan's idle slot for reuse. The accessor itself
// is retained — it is reusable after Release — so recycled executions keep
// their ring.
func (ex *executor) release() {
	ex.acc.Release()
	ex.p.idleEx = ex
}

func (ex *executor) trav(st *planStep) *pathexpr.Traversal {
	t := ex.travs[st.id]
	if t == nil {
		t = st.au.NewTraversal(ex.g)
		if ex.ctx != nil {
			t.SetContext(ex.ctx)
		}
		ex.travs[st.id] = t
	}
	return t
}

// finish marks the executor exhausted and reports false. A cancelled
// traversal presents as exhaustion to the join loop (its Next just stops
// yielding), so this final poll is what keeps a cancellation-truncated run
// from looking like clean completion: if the context was cancelled at any
// point before the space "ran out", Err reports it and callers discard
// the partial result.
func (ex *executor) finish() bool {
	ex.done = true
	if ex.ctx != nil && ex.err == nil {
		ex.err = ex.ctx.Err()
	}
	return false
}

// fail records a terminal error and marks the executor done. Any failure
// source — cancellation or a recovered panic — ends up here, so no terminal
// condition can masquerade as a clean exhaustion.
func (ex *executor) fail(err error) bool {
	if ex.err == nil {
		ex.err = err
	}
	ex.done = true
	return false
}

// cancelled polls the context: callers at pull granularity pass force=true
// (one real check per Next call); the inner join loop passes force=false
// and pays one real check per 64 iterations.
//
//ssd:poll
func (ex *executor) cancelled(force bool) bool {
	if ex.err != nil {
		return true
	}
	if ex.ctx == nil {
		return false
	}
	if !force {
		ex.polls++
		if ex.polls&63 != 0 {
			return false
		}
	}
	if err := ex.ctx.Err(); err != nil {
		ex.err = err
		ex.done = true
		return true
	}
	return false
}

// Next advances to the next binding row that satisfies every placed filter,
// returning false when the space is exhausted. On true, regs holds the row.
// A panic raised anywhere in the pull loop (lower-layer iterators included)
// is recovered into Err rather than crashing the caller: a server streaming
// rows to a remote client must report "this result set died", not fall over.
func (ex *executor) Next() (ok bool) {
	if ex.done || ex.cancelled(true) {
		return false
	}
	defer func() {
		if r := recover(); r != nil {
			ok = ex.fail(fmt.Errorf("query: execution failed: %v", r))
		}
	}()
	return ex.next()
}

// next advances to the next binding row. The pull loop is unbounded over
// candidate rows, so it must stay cancellation-responsive.
//
//ssd:ctxpoll
func (ex *executor) next() bool {
	n := len(ex.atoms)
	var i int
	if !ex.started {
		ex.started = true
		for _, c := range ex.p.preConds {
			if !c.eval(ex) {
				return ex.finish()
			}
		}
		if n == 0 {
			return ex.finish()
		}
		ex.openAtomTimed(0)
	} else {
		i = n - 1
	}
	for i >= 0 {
		if ex.cancelled(false) {
			return false
		}
		as := &ex.atoms[i]
		var dst ssd.NodeID
		var ok bool
		if tr := ex.trace; tr == nil {
			dst, ok = as.next(ex)
		} else {
			start := time.Now()
			dst, ok = as.next(ex)
			tr.AtomNanos[i] += int64(time.Since(start))
		}
		if !ok {
			i--
			continue
		}
		ex.regs.trees[as.a.dstSlot] = dst
		if !ex.evalConds(as.a.conds) {
			continue
		}
		if tr := ex.trace; tr != nil {
			tr.AtomRows[i]++
		}
		if i == n-1 {
			return true
		}
		i++
		ex.openAtomTimed(i)
	}
	return ex.finish()
}

// openAtomTimed is openAtom with the open cost (scan materialization
// included) attributed to the atom's trace span when tracing is on.
func (ex *executor) openAtomTimed(i int) {
	tr := ex.trace
	if tr == nil {
		ex.openAtom(i)
		return
	}
	start := time.Now()
	ex.openAtom(i)
	tr.AtomNanos[i] += int64(time.Since(start))
}

func (ex *executor) openAtom(i int) {
	as := &ex.atoms[i]
	src := ex.g.Root()
	if as.a.srcSlot >= 0 {
		src = ex.regs.trees[as.a.srcSlot]
	}
	as.open(ex, src)
}

func (ex *executor) evalConds(conds []cCond) bool {
	for _, c := range conds {
		if !c.eval(ex) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Atom iteration

// atomState is the per-execution state of one planned atom: either a
// materialized scan (root-anchored index/guide access) or a pipeline of step
// cursors.
type atomState struct {
	a   *planAtom
	src ssd.NodeID

	// Scan access (index-seek, index-backward, dataguide): destinations are
	// materialized on first open and replayed thereafter — scan atoms are
	// always root-anchored, so the result is invariant across outer rows.
	scan    []ssd.NodeID
	si      int
	scanned bool

	// Step pipeline.
	cur   []stepCursor
	level int

	emitted bool // zero-step atoms yield their source exactly once

	// Destination dedup (only when the atom binds no label/path variables):
	// the nodes yielded since the last open.
	seen ssd.NodeSet
}

type stepCursor struct {
	st   *planStep
	node ssd.NodeID

	edges []ssd.Edge // label-var steps
	ei    int

	pnodes []ssd.NodeID // path-var steps (materialized witnesses)
	ppaths [][]ssd.Label
	pi     int
}

func (as *atomState) open(ex *executor, src ssd.NodeID) {
	as.src = src
	as.emitted = false
	as.seen.Clear()
	switch as.a.access {
	case AccessIndexSeek:
		if !as.scanned {
			for _, ref := range ex.p.opts.Label.Lookup(as.a.seekLabel) {
				if ex.p.reach[ref.From] {
					as.scan = append(as.scan, ref.To)
				}
			}
			as.scanned = true
		}
		as.si = 0
	case AccessIndexBackward:
		if !as.scanned {
			as.backwardScan(ex)
			as.scanned = true
		}
		as.si = 0
	case AccessGuide:
		if !as.scanned {
			as.scan = ex.p.opts.Guide.Eval(as.a.guideAu)
			as.scanned = true
		}
		as.si = 0
	default:
		if len(as.a.steps) == 0 {
			return
		}
		if as.cur == nil {
			as.cur = make([]stepCursor, len(as.a.steps))
			for i := range as.cur {
				as.cur[i].st = as.a.steps[i]
			}
		}
		as.level = 0
		as.cur[0].seed(ex, src)
	}
}

// next yields the atom's next destination node (and writes any label/path
// slots its steps bind), or ok=false when exhausted for the current source.
func (as *atomState) next(ex *executor) (ssd.NodeID, bool) {
	switch as.a.access {
	case AccessIndexSeek, AccessIndexBackward, AccessGuide:
		for as.si < len(as.scan) {
			dst := as.scan[as.si]
			as.si++
			if as.a.dedup && !as.seen.Add(dst) {
				continue
			}
			return dst, true
		}
		return ssd.InvalidNode, false
	}
	if len(as.a.steps) == 0 {
		if as.emitted {
			return ssd.InvalidNode, false
		}
		as.emitted = true
		return as.src, true
	}
	i := as.level
	last := len(as.cur) - 1
	for i >= 0 {
		c := &as.cur[i]
		if !c.advance(ex) {
			i--
			continue
		}
		if i < last {
			i++
			as.cur[i].seed(ex, as.cur[i-1].node)
			continue
		}
		as.level = i
		if as.a.dedup && !as.seen.Add(c.node) {
			continue
		}
		return c.node, true
	}
	as.level = 0
	return ssd.InvalidNode, false
}

func (c *stepCursor) seed(ex *executor, src ssd.NodeID) {
	switch c.st.kind {
	case stepRegex:
		ex.trav(c.st).Reset(src)
	case stepLabelVar, stepParam:
		c.edges = ex.g.Out(src)
		c.ei = 0
	case stepPathVar:
		// Materialize one shortest witness per reachable node; sorted for
		// deterministic iteration. Path-variable bindings are the one step
		// kind that allocates — they carry variable-length witnesses.
		witness := c.st.au.EvalWithPaths(ex.g, src)
		nodes := make([]ssd.NodeID, 0, len(witness))
		for n := range witness {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		c.pnodes = nodes
		c.ppaths = c.ppaths[:0]
		for _, n := range nodes {
			c.ppaths = append(c.ppaths, witness[n])
		}
		c.pi = 0
	}
}

// advance moves the cursor to its next match, writing bound slots, and
// reports whether one was produced.
func (c *stepCursor) advance(ex *executor) bool {
	switch c.st.kind {
	case stepRegex:
		n, ok := ex.trav(c.st).Next()
		if !ok {
			return false
		}
		c.node = n
		return true
	case stepLabelVar:
		for c.ei < len(c.edges) {
			e := c.edges[c.ei]
			c.ei++
			if c.st.slot >= 0 {
				if c.st.filter {
					if !e.Label.Equal(ex.regs.labels[c.st.slot]) {
						continue
					}
				} else {
					ex.regs.labels[c.st.slot] = e.Label
				}
			}
			c.node = e.To
			return true
		}
		return false
	case stepParam:
		for c.ei < len(c.edges) {
			e := c.edges[c.ei]
			c.ei++
			if !e.Label.Equal(ex.params[c.st.slot]) {
				continue
			}
			c.node = e.To
			return true
		}
		return false
	default: // stepPathVar
		if c.pi >= len(c.pnodes) {
			return false
		}
		if c.st.slot >= 0 {
			ex.regs.paths[c.st.slot] = c.ppaths[c.pi]
		}
		c.node = c.pnodes[c.pi]
		c.pi++
		return true
	}
}

// backwardScan implements index-backward access: seek the posting list of
// the rarest label in the chain, verify the prefix back to the root against
// the label index's by-target views, then walk the suffix forward. The
// views are looked up once here, so verifying a candidate costs binary
// searches only: no map lookup, no label hash, and no reverse adjacency.
// Chain labels are symbols or strings (exactChain), whose Equal is
// identity, so a label's postings are exactly the edges Equal matches.
func (as *atomState) backwardScan(ex *executor) {
	a := as.a
	ix := ex.p.opts.Label
	views := make([]index.TargetView, a.chainIdx)
	for i, l := range a.chain[:a.chainIdx] {
		views[i] = ix.ByTarget(l)
	}
	for _, ref := range ix.Lookup(a.chain[a.chainIdx]) {
		if ex.verifyBackward(views, ref.From) {
			as.forwardSuffix(ex, ref.To, a.chain, a.chainIdx+1)
		}
	}
}

// verifyBackward reports whether some path root --chain[0]--> …
// --chain[k]--> n exists, where views[j] is chain[j]'s by-target view and
// k = len(views)-1.
func (ex *executor) verifyBackward(views []index.TargetView, n ssd.NodeID) bool {
	k := len(views) - 1
	if k < 0 {
		return n == ex.g.Root()
	}
	for _, ref := range views[k].Into(n) {
		if ex.verifyBackward(views[:k], ref.From) {
			return true
		}
	}
	return false
}

// forwardSuffix appends every node reachable from n over chain[j:] to the
// atom's scan buffer.
func (as *atomState) forwardSuffix(ex *executor, n ssd.NodeID, chain []ssd.Label, j int) {
	if j == len(chain) {
		as.scan = append(as.scan, n)
		return
	}
	for _, e := range ex.g.Out(n) {
		if e.Label.Equal(chain[j]) {
			as.forwardSuffix(ex, e.To, chain, j+1)
		}
	}
}

// ---------------------------------------------------------------------------
// Exists evaluation over compiled steps

// pathExists reports whether some walk of steps[i:] from src succeeds. Regex
// steps reuse pooled traversals; label-variable steps act as filters when
// their slot is bound and wildcards otherwise.
func (ex *executor) pathExists(src ssd.NodeID, steps []*planStep, i int) bool {
	if i == len(steps) {
		return true
	}
	st := steps[i]
	switch st.kind {
	case stepRegex:
		tr := ex.trav(st)
		tr.Reset(src)
		for {
			n, ok := tr.Next()
			if !ok {
				return false
			}
			if ex.pathExists(n, steps, i+1) {
				return true
			}
		}
	case stepParam:
		for _, e := range ex.g.Out(src) {
			if !e.Label.Equal(ex.params[st.slot]) {
				continue
			}
			if ex.pathExists(e.To, steps, i+1) {
				return true
			}
		}
		return false
	default: // stepLabelVar (stepPathVar is rewritten to regex at compile)
		for _, e := range ex.g.Out(src) {
			if st.slot >= 0 {
				if st.filter {
					if !e.Label.Equal(ex.regs.labels[st.slot]) {
						continue
					}
				} else {
					// Scratch binding: later occurrences of the same
					// variable in this walk filter against it.
					ex.regs.labels[st.slot] = e.Label
				}
			}
			if ex.pathExists(e.To, steps, i+1) {
				return true
			}
		}
		return false
	}
}
