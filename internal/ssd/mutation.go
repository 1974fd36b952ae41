package ssd

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
// edge was removed. The edge slice is edited in place; on a copy-on-write
// clone the caller must PrivatizeOut(from) first.
func (g *Graph) DeleteEdge(from NodeID, l Label, to NodeID) bool {
	g.check(from)
	g.check(to)
	es := g.out(from)
	for i, e := range es {
		if e.To == to && e.Label == l {
			copy(es[i:], es[i+1:])
			*g.slot(from) = es[:len(es)-1]
			return true
		}
	}
	return false
}

// Relabel rewrites the label of every edge out of from whose label is
// identical to old, returning the number of edges rewritten. Like
// DeleteEdge it edits in place and uses label identity, so Relabel(n,
// Int(2), …) leaves a Float(2.0) edge alone.
func (g *Graph) Relabel(from NodeID, old, new Label) int {
	g.check(from)
	n := 0
	es := g.out(from)
	for i := range es {
		if es[i].Label == old {
			es[i].Label = new
			n++
		}
	}
	return n
}

// CloneShared returns a copy of g whose per-node edge slices are shared with
// the original — the copy-on-write entry point of the mutation subsystem.
// The node table is shared by chunks: the clone copies only the spine, and
// from then on neither graph writes a shared chunk in place — the first
// write to one copies that chunk — so AddNode/SetOID/SetRoot on either
// graph are safe immediately, and the clone costs O(nodes / 256). Before
// editing the edges of an existing node the caller must PrivatizeOut it,
// or in-place edits (and appends into spare capacity) would write into
// storage the original's readers share. The spine has room for extra more
// nodes.
func (g *Graph) CloneShared(extra int) *Graph {
	spine := make([]*spineChunk, len(g.spine), len(g.spine)+max(extra, 0)>>spineBits+1)
	copy(spine, g.spine)
	h := &Graph{spine: spine, n: g.n, root: g.root}
	h.epoch.Store(epochs.Add(1))
	g.epoch.Store(epochs.Add(1))
	if g.oid != nil {
		h.oid = make(map[NodeID]string, len(g.oid))
		for n, id := range g.oid {
			h.oid[n] = id
		}
	}
	return h
}

// PrivatizeOut replaces n's edge slice with a freshly allocated copy so
// subsequent in-place edits and appends cannot touch storage shared with
// another graph (see CloneShared). Calling it on an already-private slice
// merely wastes the copy.
func (g *Graph) PrivatizeOut(n NodeID) {
	g.check(n)
	p := g.slot(n)
	*p = append(make([]Edge, 0, len(*p)+1), *p...)
}
