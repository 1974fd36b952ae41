package ssd

import (
	"maps"
	"slices"
)

// This file holds the in-place mutation primitives and the copy-on-write
// support the mutation subsystem (internal/mutate) is built on. The model
// itself stays value-oriented: these primitives exist so a *versioned* write
// path can produce a new graph version cheaply, not so callers can edit
// graphs that readers hold.

// EdgeRec is a fully specified edge occurrence (source, label, target) — the
// unit of the mutation deltas exchanged between the write path and
// derived-structure maintenance (index.Apply, dataguide ApplyDelta).
type EdgeRec struct {
	From  NodeID
	Label Label
	To    NodeID
}

// Delta lists the edge occurrences a mutation batch added and removed, in
// application order. A relabel appears as one removal plus one addition of
// the same (source, target) pair.
//
// Sources records, per edit, a node gaining its first out-edge with a label
// (+1) or losing its last (−1). The write path has the node's adjacency at
// hand when it edits it, so the distinct-source count per label can be
// maintained from the delta alone: summed per label, the entries are the
// exact change in the number of nodes with an out-edge of that label.
type Delta struct {
	Added   []EdgeRec
	Removed []EdgeRec
	Sources []SourceChange
}

// SourceChange is one entry of Delta.Sources: N is +1 or −1.
type SourceChange struct {
	Label Label
	N     int
}

// Empty reports whether the delta carries no edge changes.
func (d Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// Normalize cancels add/remove pairs of the same edge occurrence inside the
// delta: an edge added by a batch and deleted later in the same batch never
// existed in the base graph, so consumers maintaining a base-derived
// structure must not see either record. Identical records are
// interchangeable, making the cancellation order-insensitive. Sources passes
// through unchanged: an add-then-delete pair records +1 and −1 for the same
// label, which already cancel in the per-label sum.
func (d Delta) Normalize() Delta {
	if len(d.Added) == 0 || len(d.Removed) == 0 {
		return d
	}
	avail := make(map[EdgeRec]int, len(d.Added))
	for _, a := range d.Added {
		avail[a]++
	}
	cancel := make(map[EdgeRec]int)
	removed := make([]EdgeRec, 0, len(d.Removed))
	for _, r := range d.Removed {
		if avail[r] > 0 {
			avail[r]--
			cancel[r]++
			continue
		}
		removed = append(removed, r)
	}
	if len(cancel) == 0 {
		return d
	}
	added := make([]EdgeRec, 0, len(d.Added))
	for _, a := range d.Added {
		if cancel[a] > 0 {
			cancel[a]--
			continue
		}
		added = append(added, a)
	}
	return Delta{Added: added, Removed: removed, Sources: d.Sources}
}

// DeleteEdge removes the first edge from → (label) → to whose label is
// identical (Go equality, not numeric Equal) to l. It reports whether an
// edge was removed. Like every write it edits the graph's own copy of
// from's list (see slot), never a base or a list another graph shares.
func (g *Graph) DeleteEdge(from NodeID, l Label, to NodeID) bool {
	g.check(from)
	g.check(to)
	i := slices.Index(g.out(from), Edge{Label: l, To: to})
	if i < 0 {
		return false
	}
	p := g.slot(from)
	*p = slices.Delete(*p, i, i+1)
	return true
}

// Relabel rewrites the label of every edge out of from whose label is
// identical to old, returning the number of edges rewritten. Like
// DeleteEdge it uses label identity, so Relabel(n, Int(2), …) leaves a
// Float(2.0) edge alone, and it copies from's list only if an edge matches.
func (g *Graph) Relabel(from NodeID, old, new Label) int {
	g.check(from)
	if !slices.ContainsFunc(g.out(from), func(e Edge) bool { return e.Label == old }) {
		return 0
	}
	n := 0
	es := *g.slot(from)
	for i := range es {
		if es[i].Label == old {
			es[i].Label = new
			n++
		}
	}
	return n
}

// CloneShared returns a copy of g that shares g's storage — the
// copy-on-write entry point of the mutation subsystem. The clone shares g's
// base, and its overlay chunk by chunk: it copies only the spine, and from
// then on neither graph writes a shared chunk or a shared list in place —
// the first write copies it — so every write on either graph is safe
// immediately, and the clone costs O(nodes / 256). Once g's overlay has
// outgrown its base (foldDiv), the clone instead gets a new base holding
// all of g's lists, with node ids and edge order kept; g keeps its own.
// The spine has room for extra more nodes.
func (g *Graph) CloneShared(extra int) *Graph {
	if g.overlayHeavy() {
		return g.folded(extra)
	}
	spine := make([]*spineChunk, len(g.spine), len(g.spine)+max(extra, 0)>>spineBits+1)
	copy(spine, g.spine)
	h := &Graph{off: g.off, edges: g.edges, spine: spine, slots: g.slots, n: g.n, root: g.root, oid: maps.Clone(g.oid)}
	h.epoch.Store(epochs.Add(1))
	g.epoch.Store(epochs.Add(1))
	return h
}

// PrivatizeOut gives n a list of g's own, with room for one more edge, so
// that edits and appends cannot touch storage shared with another graph or
// the base (see CloneShared). Every write already does this on its own;
// calling it on a list g already owns does nothing.
func (g *Graph) PrivatizeOut(n NodeID) {
	g.check(n)
	g.slot(n)
}
