package pathexpr

import (
	"context"

	"repro/internal/ssd"
)

// Traversal is a resumable, pull-based product-graph traversal — the one
// lazy-DFA product search; Automaton.Eval drains it. It explores (node, lazy-DFA state) pairs and yields
// each accepting node exactly once, on demand, sharing the automaton's
// memoized subset construction across runs. A Traversal is reset-able: after
// Reset it can be reused for a new start node with no allocation beyond what
// new DFA states require, which is what makes it cheap to seed once per
// outer binding row inside a query executor's nested-loop join. Retarget
// points it at another store, so one traversal (and its scratch) can serve a
// statement across snapshots.
//
// A Traversal (like the Automaton's other evaluation entry points) mutates
// the automaton's lazy-DFA cache and is therefore not safe for concurrent
// use of one Automaton.
type Traversal struct {
	au *Automaton
	g  ssd.GraphStore

	stack []prodItem
	// planes[0] holds the nodes already yielded; planes[d+1] the nodes
	// pushed in dstate d. A plane is added when its dstate is first reached;
	// each clears in what the run marked (ssd.NodeSet), so Reset costs what
	// the run touched rather than what the graph holds.
	planes []ssd.NodeSet

	// Cancellation: when ctx is non-nil, Next polls it (strided, so the
	// common case stays one atomic-free comparison) and stops the run by
	// reporting exhaustion. err distinguishes "cancelled" from "done".
	ctx    context.Context
	ctxErr error
	polls  uint32
}

// SetContext attaches a cancellation context to the traversal. A cancelled
// context makes Next return ok=false within one pull; Err then reports the
// context's error. A nil context disables the checks (the default).
func (t *Traversal) SetContext(ctx context.Context) { t.ctx = ctx }

// Err returns the context error that stopped the traversal, if any. It is
// reset by Reset.
func (t *Traversal) Err() error { return t.ctxErr }

// cancelled polls the context, one real check per 64 calls (ctx.Err takes a
// lock; the stride keeps the pull loop's common case branch-only).
//
//ssd:poll
func (t *Traversal) cancelled() bool {
	if t.ctxErr != nil {
		return true
	}
	if t.ctx == nil {
		return false
	}
	t.polls++
	if t.polls&63 != 1 {
		return false
	}
	if err := t.ctx.Err(); err != nil {
		t.ctxErr = err
		return true
	}
	return false
}

// NewTraversal prepares a reusable traversal of g — any GraphStore: the
// in-memory graph or a paged store (typically its pinning accessor).
// Call Reset before the first Next.
func (au *Automaton) NewTraversal(g ssd.GraphStore) *Traversal {
	return &Traversal{au: au, g: g}
}

// Retarget points the traversal at another store, keeping its scratch; call
// Reset before the next Next. A nil store detaches it, so an idle pooled
// traversal does not keep a superseded graph version alive.
func (t *Traversal) Retarget(g ssd.GraphStore) { t.g = g }

// Reset rewinds the traversal to begin from start. Buffers are retained;
// the cost is proportional to what the previous run visited.
func (t *Traversal) Reset(start ssd.NodeID) {
	for i := range t.planes {
		t.planes[i].Clear()
	}
	t.stack = t.stack[:0]
	t.ctxErr = nil
	t.push(start, t.au.dstart)
}

func (t *Traversal) push(n ssd.NodeID, d int) {
	for d+1 >= len(t.planes) {
		t.planes = append(t.planes, ssd.NodeSet{})
	}
	if t.planes[d+1].Add(n) {
		t.stack = append(t.stack, prodItem{n, d})
	}
}

// Next yields the next accepting node, or ok=false when the product graph is
// exhausted or the attached context is cancelled. Each node is yielded at
// most once per Reset. Cancellation is checked once per pull and strided
// inside the expansion loop, so a cancelled context stops the traversal
// within one Next call.
//
//ssd:ctxpoll
func (t *Traversal) Next() (ssd.NodeID, bool) {
	if t.ctx != nil {
		if t.ctxErr != nil {
			return ssd.InvalidNode, false
		}
		if err := t.ctx.Err(); err != nil {
			t.ctxErr = err
			return ssd.InvalidNode, false
		}
	}
	for len(t.stack) > 0 {
		if t.cancelled() {
			return ssd.InvalidNode, false
		}
		it := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		for _, e := range t.g.Out(it.node) {
			nd := t.au.dstep(it.dstate, e.Label)
			if nd < 0 {
				continue
			}
			t.push(e.To, nd)
		}
		if t.au.daccept[it.dstate] && t.planes[0].Add(it.node) {
			return it.node, true
		}
	}
	return ssd.InvalidNode, false
}
