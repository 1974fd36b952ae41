// Package dataguide implements strong DataGuides (§5 of the paper, Goldman &
// Widom [22]): a deterministic structural summary of a rooted edge-labeled
// graph, built by subset construction. Every label path from the database
// root appears exactly once in the guide, and each guide node carries the
// extent — the exact set of database nodes reachable by the paths that lead
// to it. The guide therefore doubles as a path index: evaluate a path query
// over the (small) guide and union the extents of the accepting guide nodes
// (experiment E3), and as a browsing aid (§1.3): the guide is the "schema
// you can see" when none was declared. Construction is linear on tree-like
// data and exponential in the worst case on highly irregular graphs — the
// known subset-construction blowup measured in experiment E9.
package dataguide

import (
	"encoding/binary"
	"sort"

	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

// Guide is a strong DataGuide over a source graph.
type Guide struct {
	// G is the guide graph itself: deterministic (at most one out-edge per
	// label per node), rooted at G.Root().
	G *ssd.Graph
	// Extent holds, for each guide node (dense, indexed by guide NodeID),
	// the sorted set of source nodes reachable by exactly the label paths
	// that reach the guide node.
	Extent [][]ssd.NodeID

	source ssd.GraphStore
	// tbl is the construction-side state (extent interning and membership),
	// carried along so incremental maintenance (ApplyDelta) does not pay an
	// O(guide) rebuild per batch. Only the table's current owner may extend
	// it; see internTable.
	tbl *internTable
	// builtNodes is the guide size at the last full Build. ApplyDelta
	// repoints may orphan guide nodes; once the guide has grown well past
	// this baseline the garbage outweighs the maintenance savings and
	// ApplyDelta declines (ok=false), steering the caller to a fresh Build.
	builtNodes int
}

// internTable is the subset-construction working state shared along one
// chain of guide versions: the extent-set intern map and, for each source
// node, the guide nodes whose extent contains it (the inverted index that
// makes dirty-region detection O(|delta|)). Both grow append-only. The
// owner pointer gates mutation: only ApplyDelta on the owning version may
// extend the table (single-writer, like all maintenance); any other guide
// rebuilds its own. Query-side readers never touch the table.
type internTable struct {
	m      map[string]ssd.NodeID
	member map[ssd.NodeID][]ssd.NodeID
	owner  *Guide
}

func (t *internTable) addMember(target []ssd.NodeID, gn ssd.NodeID) {
	for _, v := range target {
		t.member[v] = append(t.member[v], gn)
	}
}

// Build constructs the strong DataGuide of the part of g accessible from
// the root. The maxNodes cap (0 = unlimited) guards against the exponential
// worst case; Build returns ok=false if the cap is hit. Any GraphStore
// works as the source — subset construction only reads Root and Out.
func Build(g ssd.GraphStore, maxNodes int) (*Guide, bool) {
	guide := &Guide{G: ssd.New(), source: g}
	rootSet := []ssd.NodeID{g.Root()}
	tbl := &internTable{
		m:      map[string]ssd.NodeID{setKey(rootSet): guide.G.Root()},
		member: make(map[ssd.NodeID][]ssd.NodeID),
		owner:  guide,
	}
	tbl.addMember(rootSet, guide.G.Root())
	guide.Extent = [][]ssd.NodeID{rootSet}
	guide.tbl = tbl
	b := &builder{src: g, guide: guide, tbl: tbl, maxNodes: maxNodes}
	if !b.run([]task{{guide.G.Root(), rootSet}}) {
		return nil, false
	}
	guide.builtNodes = guide.G.NumNodes()
	return guide, true
}

// task is one pending subset-construction expansion: a guide node whose
// successors have not been computed yet, with its extent.
type task struct {
	guideNode ssd.NodeID
	set       []ssd.NodeID
}

// builder is the shared subset-construction engine behind Build and
// ApplyDelta: it expands pending guide nodes over the source graph,
// interning extent sets so every distinct set occurs once.
type builder struct {
	src      ssd.GraphStore
	guide    *Guide
	tbl      *internTable
	maxNodes int
}

// intern returns the guide node carrying the extent `target`, creating one
// (and reporting existed=false, so the caller must schedule its expansion)
// if the set is new. full=true means the node cap was hit.
func (b *builder) intern(target []ssd.NodeID) (gn ssd.NodeID, existed, full bool) {
	key := setKey(target)
	if gn, ok := b.tbl.m[key]; ok {
		return gn, true, false
	}
	if b.maxNodes > 0 && b.guide.G.NumNodes() >= b.maxNodes {
		return ssd.InvalidNode, false, true
	}
	gn = b.guide.G.AddNode()
	b.tbl.m[key] = gn
	b.guide.Extent = append(b.guide.Extent, target)
	b.tbl.addMember(target, gn)
	return gn, false, false
}

// run drains the expansion queue. It returns false if the node cap was hit.
func (b *builder) run(queue []task) bool {
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		// Group the successors of every node in the set by label.
		byLabel := make(map[ssd.Label][]ssd.NodeID)
		for _, v := range t.set {
			for _, e := range b.src.Out(v) {
				byLabel[e.Label] = append(byLabel[e.Label], e.To)
			}
		}
		labels := make([]ssd.Label, 0, len(byLabel))
		for l := range byLabel {
			labels = append(labels, l)
		}
		sort.Slice(labels, func(i, j int) bool { return labels[i].Less(labels[j]) })
		for _, l := range labels {
			target := dedupNodes(byLabel[l])
			gn, existed, full := b.intern(target)
			if full {
				return false
			}
			if !existed {
				queue = append(queue, task{gn, target})
			}
			b.guide.G.AddEdge(t.guideNode, l, gn)
		}
	}
	return true
}

// MustBuild builds with no node cap.
func MustBuild(g ssd.GraphStore) *Guide {
	guide, _ := Build(g, 0)
	return guide
}

func dedupNodes(ns []ssd.NodeID) []ssd.NodeID {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	w := 0
	for i, n := range ns {
		if i > 0 && n == ns[w-1] {
			continue
		}
		ns[w] = n
		w++
	}
	return ns[:w]
}

func setKey(ns []ssd.NodeID) string {
	buf := make([]byte, 0, len(ns)*3)
	for _, n := range ns {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	return string(buf)
}

// NumNodes returns the guide size in nodes.
func (d *Guide) NumNodes() int { return d.G.NumNodes() }

// LookupPath follows an exact label path from the guide root and returns the
// extent at its end — the set of database nodes reachable by that path. The
// second result is false if the path does not occur in the database.
func (d *Guide) LookupPath(labels []ssd.Label) ([]ssd.NodeID, bool) {
	n := d.G.Root()
	for _, l := range labels {
		n = d.G.LookupFirst(n, l)
		if n == ssd.InvalidNode {
			return nil, false
		}
	}
	return d.Extent[n], true
}

// Eval evaluates a compiled path expression using the guide as a path index:
// the automaton runs over the guide (usually far smaller than the data) and
// the extents of accepting guide nodes are unioned. For strong DataGuides
// this returns exactly the same node set as evaluating over the data,
// because guide label paths and data label paths coincide and the extent of
// a guide node is precisely the target set of its paths.
func (d *Guide) Eval(au *pathexpr.Automaton) []ssd.NodeID {
	hits := au.Eval(d.G, d.G.Root())
	seen := make(map[ssd.NodeID]bool)
	out := make([]ssd.NodeID, 0, len(hits))
	for _, gn := range hits {
		for _, v := range d.Extent[gn] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Paths enumerates up to limit distinct label paths of length ≤ maxDepth
// from the root — the browsing view a DataGuide gives a user who does not
// know the schema (§1.3, §5 "schemas are useful for browsing").
func (d *Guide) Paths(maxDepth, limit int) [][]ssd.Label {
	var out [][]ssd.Label
	type frame struct {
		node ssd.NodeID
		path []ssd.Label
	}
	queue := []frame{{d.G.Root(), nil}}
	for len(queue) > 0 && (limit <= 0 || len(out) < limit) {
		f := queue[0]
		queue = queue[1:]
		if len(f.path) > 0 {
			out = append(out, f.path)
		}
		if len(f.path) >= maxDepth {
			continue
		}
		for _, e := range d.G.Out(f.node) {
			p := append(append([]ssd.Label(nil), f.path...), e.Label)
			queue = append(queue, frame{e.To, p})
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Annotation summarizes one guide node for browsing output.
type Annotation struct {
	Path      []ssd.Label
	ExtentLen int
}

// Summary returns annotations for the first `limit` guide paths in BFS
// order: each path with the size of its extent.
func (d *Guide) Summary(maxDepth, limit int) []Annotation {
	paths := d.Paths(maxDepth, limit)
	out := make([]Annotation, 0, len(paths))
	for _, p := range paths {
		ext, _ := d.LookupPath(p)
		out = append(out, Annotation{Path: p, ExtentLen: len(ext)})
	}
	return out
}
