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
	// planes[0] holds one bit per node already yielded; planes[d+1] one bit
	// per node pushed in dstate d. A plane is allocated when its dstate is
	// first reached and grown when the store has more nodes than it covers.
	// dirty lists every word a run turned non-zero, so Reset clears what the
	// run touched rather than what the graph holds; it never outgrows the
	// planes themselves (a word is logged once per run).
	planes [][]uint64
	dirty  []dirtyWord

	// Cancellation: when ctx is non-nil, Next polls it (strided, so the
	// common case stays one atomic-free comparison) and stops the run by
	// reporting exhaustion. err distinguishes "cancelled" from "done".
	ctx    context.Context
	ctxErr error
	polls  uint32
}

// dirtyWord names planes[plane][word].
type dirtyWord struct{ plane, word uint32 }

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
	for _, w := range t.dirty {
		t.planes[w.plane][w.word] = 0
	}
	t.dirty = t.dirty[:0]
	t.stack = t.stack[:0]
	t.ctxErr = nil
	t.push(start, t.au.dstart)
}

// mark sets node n's bit in a plane, reporting whether it was clear.
func (t *Traversal) mark(plane int, n ssd.NodeID) bool {
	w := int(n >> 6)
	if plane >= len(t.planes) || w >= len(t.planes[plane]) {
		t.grow(plane)
	}
	bits := t.planes[plane]
	m := uint64(1) << (n & 63)
	if bits[w]&m != 0 {
		return false
	}
	if bits[w] == 0 {
		t.dirty = append(t.dirty, dirtyWord{uint32(plane), uint32(w)})
	}
	bits[w] |= m
	return true
}

// grow extends a plane to cover every node of the current store. Set bits
// and their dirty entries stay valid: words only ever gain zeroed successors.
func (t *Traversal) grow(plane int) {
	for plane >= len(t.planes) {
		t.planes = append(t.planes, nil)
	}
	bits := t.planes[plane]
	if words := (t.g.NumNodes() + 63) >> 6; words > len(bits) {
		t.planes[plane] = append(bits, make([]uint64, words-len(bits))...)
	}
}

func (t *Traversal) push(n ssd.NodeID, d int) {
	if t.mark(d+1, n) {
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
		if t.au.daccept[it.dstate] && t.mark(0, it.node) {
			return it.node, true
		}
	}
	return ssd.InvalidNode, false
}
