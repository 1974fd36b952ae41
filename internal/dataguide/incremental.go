package dataguide

import (
	"sort"

	"repro/internal/ssd"
)

// This file maintains a strong DataGuide incrementally under mutation, in
// the spirit of incremental derived-structure maintenance for deductive
// databases: re-derive only what a delta touches. Adding edge u -l→ v to the
// data graph changes exactly the l-successor sets of the guide nodes whose
// extent contains u (an extent is determined by the label paths reaching it,
// which additions never shrink); ApplyDelta recomputes those successor sets
// and lets the shared subset-construction builder expand any genuinely new
// extent set over the post-mutation graph. Removals can shrink extents
// arbitrarily far downstream, so they fall back conservatively: if a removed
// edge's source occurs in any extent the whole guide is declared dirty
// (ok=false, caller rebuilds); removals outside the accessible region are
// proven harmless and skipped.

// ApplyDelta derives the guide of g — the post-mutation source graph — from
// the receiver, which must be the guide of the pre-mutation graph. It never
// mutates the receiver's queryable state: untouched extents and adjacency
// are shared, so readers of the old guide are unaffected (the MVCC contract
// of internal/core). Maintenance itself is single-writer: concurrent
// ApplyDelta calls, even on different versions of one chain, must be
// serialized by the caller. The second result is false when incremental
// maintenance is not possible — an accessible-region removal, or the
// maxNodes cap (0 = unlimited) was hit — and the caller should rebuild.
//
// Repointed guide nodes may leave their old successors unreachable from the
// guide root; those stay in the graph and extent table as garbage until the
// next full rebuild, and keep being maintained so that interned extent sets
// stay reusable. Eval, LookupPath, Paths and Summary all start from the
// root and never see them.
func (d *Guide) ApplyDelta(g *ssd.Graph, delta ssd.Delta, maxNodes int) (*Guide, bool) {
	if d.G.NumNodes() > 2*d.builtNodes+64 {
		// Accumulated garbage from repoints outweighs the incremental
		// savings; bound it by declining so the caller rebuilds.
		return nil, false
	}
	delta = delta.Normalize()
	tbl := d.tbl
	if tbl == nil || tbl.owner != d {
		// The receiver is not the tip of its maintenance chain (or predates
		// the table): rebuild the working state from its extents.
		tbl = rebuildTable(d)
	}
	for _, r := range delta.Removed {
		if len(tbl.member[r.From]) > 0 {
			return nil, false // removal touches the accessible region
		}
	}
	// Dirty pairs: (guide node, label) whose successor set may have grown.
	bySource := make(map[ssd.NodeID][]ssd.Label)
	for _, a := range delta.Added {
		bySource[a.From] = append(bySource[a.From], a.Label)
	}
	dirty := make(map[ssd.NodeID]map[ssd.Label]bool)
	for u, ls := range bySource {
		for _, gn := range tbl.member[u] {
			labels := dirty[gn]
			if labels == nil {
				labels = make(map[ssd.Label]bool, len(ls))
				dirty[gn] = labels
			}
			for _, l := range ls {
				labels[l] = true
			}
		}
	}
	if len(dirty) == 0 {
		return d, true // nothing accessible changed; the guide is shareable as-is
	}

	// Room for one new guide node per added edge: the usual commit interns
	// fewer, so neither table regrows.
	grow := len(delta.Added)
	ng := &Guide{
		G:          d.G.CloneShared(grow),
		Extent:     append(make([][]ssd.NodeID, 0, len(d.Extent)+grow), d.Extent...),
		source:     g,
		tbl:        tbl,
		builtNodes: d.builtNodes,
	}
	// Adopt the table: d stops being the tip, so a later ApplyDelta on d
	// (a fork) will rebuild its own copy rather than see ng's entries.
	tbl.owner = ng
	b := &builder{src: g, guide: ng, tbl: tbl, maxNodes: maxNodes}

	var queue []task
	for _, gn := range sortedDirtyNodes(dirty) {
		labels := make([]ssd.Label, 0, len(dirty[gn]))
		for l := range dirty[gn] {
			labels = append(labels, l)
		}
		sort.Slice(labels, func(i, j int) bool { return labels[i].Less(labels[j]) })
		privatized := false
		for _, l := range labels {
			target := successorSet(g, ng.Extent[gn], l)
			cur := exactSuccessor(ng.G, gn, l)
			if cur != ssd.InvalidNode && setKey(ng.Extent[cur]) == setKey(target) {
				continue
			}
			to, existed, full := b.intern(target)
			if full {
				return nil, false
			}
			if !existed {
				queue = append(queue, task{to, target})
			}
			if !privatized {
				ng.G.PrivatizeOut(gn)
				privatized = true
			}
			if cur != ssd.InvalidNode {
				ng.G.DeleteEdge(gn, l, cur)
			}
			ng.G.AddEdge(gn, l, to)
		}
	}
	if !b.run(queue) {
		return nil, false
	}
	return ng, true
}

// rebuildTable reconstructs the interning and membership state from a
// guide's extents — the O(guide) fallback for guides that are not the tip
// of a maintenance chain.
func rebuildTable(d *Guide) *internTable {
	tbl := &internTable{
		m:      make(map[string]ssd.NodeID, len(d.Extent)),
		member: make(map[ssd.NodeID][]ssd.NodeID),
	}
	for gn, ext := range d.Extent {
		tbl.m[setKey(ext)] = ssd.NodeID(gn)
		tbl.addMember(ext, ssd.NodeID(gn))
	}
	return tbl
}

// successorSet computes the deduped, sorted set of l-successors (label
// identity, matching Build's grouping) of every node in ext over g.
func successorSet(g *ssd.Graph, ext []ssd.NodeID, l ssd.Label) []ssd.NodeID {
	var out []ssd.NodeID
	for _, v := range ext {
		for _, e := range g.Out(v) {
			if e.Label == l {
				out = append(out, e.To)
			}
		}
	}
	return dedupNodes(out)
}

// exactSuccessor returns n's successor along the edge labeled identically to
// l, or InvalidNode. (Graph.LookupFirst would conflate numerically equal
// labels of different kinds, which the guide keeps distinct.)
func exactSuccessor(g *ssd.Graph, n ssd.NodeID, l ssd.Label) ssd.NodeID {
	for _, e := range g.Out(n) {
		if e.Label == l {
			return e.To
		}
	}
	return ssd.InvalidNode
}

func sortedDirtyNodes(dirty map[ssd.NodeID]map[ssd.Label]bool) []ssd.NodeID {
	out := make([]ssd.NodeID, 0, len(dirty))
	for gn := range dirty {
		out = append(out, gn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
