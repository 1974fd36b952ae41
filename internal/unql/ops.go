package unql

import (
	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

// This file packages the restructuring operations §3 of the paper lists as
// the things a select-from-where language cannot do — "deleting/collapsing
// edges with a certain property, relabeling edges, or performing local
// interchanges" and "adding new edges to short-circuit various paths" — as
// combinators over GExt.

// Relabel rewrites every edge label with f (identity to keep). This is the
// query that "corrects the egregious error in the Bacall edge label".
func Relabel(g *ssd.Graph, f func(ssd.Label) ssd.Label) *ssd.Graph {
	return GExt(g, func(l ssd.Label, _, _ ssd.NodeID, _ *ssd.Graph) Action {
		return RelabelTo(f(l))
	})
}

// RelabelWhere replaces labels matching pred with to.
func RelabelWhere(g *ssd.Graph, pred pathexpr.Pred, to ssd.Label) *ssd.Graph {
	return Relabel(g, func(l ssd.Label) ssd.Label {
		if pred.Match(l) {
			return to
		}
		return l
	})
}

// DeleteEdges removes every edge whose label matches pred, together with
// whatever becomes unreachable.
func DeleteEdges(g *ssd.Graph, pred pathexpr.Pred) *ssd.Graph {
	return GExt(g, func(l ssd.Label, _, _ ssd.NodeID, _ *ssd.Graph) Action {
		if pred.Match(l) {
			return Drop()
		}
		return Keep(l)
	})
}

// CollapseEdges short-circuits every matching edge: the target's children
// are hoisted to the source, deleting the edge but keeping its subtree.
// (E.g. collapsing Credit in Figure 1 makes both cast representations more
// alike.)
func CollapseEdges(g *ssd.Graph, pred pathexpr.Pred) *ssd.Graph {
	return GExt(g, func(l ssd.Label, _, _ ssd.NodeID, _ *ssd.Graph) Action {
		if pred.Match(l) {
			return ShortCircuit()
		}
		return Keep(l)
	})
}

// ExpandEdges replaces each matching edge label with a chain of labels —
// the inverse of collapsing, e.g. wrapping every cast entry in Credit.
func ExpandEdges(g *ssd.Graph, pred pathexpr.Pred, chain ...ssd.Label) *ssd.Graph {
	return GExt(g, func(l ssd.Label, _, _ ssd.NodeID, _ *ssd.Graph) Action {
		if pred.Match(l) {
			return ExpandTo(chain...)
		}
		return Keep(l)
	})
}

// AnnotateEdges attaches a constant subtree beside every matching edge —
// "adding new edges", the last restructuring §3 lists.
func AnnotateEdges(g *ssd.Graph, pred pathexpr.Pred, label ssd.Label, tree *ssd.Graph) *ssd.Graph {
	return GExt(g, func(l ssd.Label, _, _ ssd.NodeID, _ *ssd.Graph) Action {
		a := Keep(l)
		if pred.Match(l) {
			a.Attach = []Attachment{{Label: label, Tree: tree}}
		}
		return a
	})
}

// ---------------------------------------------------------------------------
// Vertical operations: computations "that go to arbitrary depths".

// DeepSelect returns the union of all subtrees hanging below an edge whose
// label matches pred, anywhere in the graph — UnQL's vertical select
// (e.g. "all Cast objects, however deep"). The result is a fresh graph whose
// root unions the matching subtrees.
//
// The comprehension is lowered onto the same iterator machinery the query
// executor uses: `_*.pred` compiled to an automaton, pulled through a
// product traversal that yields each matching target node exactly once.
func DeepSelect(g *ssd.Graph, pred pathexpr.Pred) *ssd.Graph {
	au := pathexpr.Compile(pathexpr.Seq{Parts: []pathexpr.Expr{
		pathexpr.AnyStar(),
		pathexpr.Atom{Pred: pred},
	}})
	tr := au.NewTraversal(g)
	tr.Reset(g.Root())
	out := ssd.New()
	cache := map[ssd.NodeID]ssd.NodeID{}
	for {
		n, ok := tr.Next()
		if !ok {
			break
		}
		mergeSubtree(out, out.Root(), g, n, cache)
	}
	return accessibleSet(out)
}

// mergeSubtree adds copies of src:n's edges onto dst:at, sharing structure
// through the cache (cycles included).
func mergeSubtree(dst *ssd.Graph, at ssd.NodeID, src *ssd.Graph, n ssd.NodeID, cache map[ssd.NodeID]ssd.NodeID) {
	for _, e := range src.Out(n) {
		dst.AddEdge(at, e.Label, copyNode(dst, src, e.To, cache))
	}
}

func copyNode(dst *ssd.Graph, src *ssd.Graph, n ssd.NodeID, cache map[ssd.NodeID]ssd.NodeID) ssd.NodeID {
	if dn, ok := cache[n]; ok {
		return dn
	}
	dn := dst.AddNode()
	cache[n] = dn
	type work struct{ s, d ssd.NodeID }
	stack := []work{{n, dn}}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range src.Out(w.s) {
			to, ok := cache[e.To]
			if !ok {
				to = dst.AddNode()
				cache[e.To] = to
				stack = append(stack, work{e.To, to})
			}
			dst.AddEdge(w.d, e.Label, to)
		}
	}
	return dn
}

// Reachability-style aggregates, expressible in the algebra's vertical
// component. They operate on the accessible part.

// CountEdges counts reachable edges matching pred.
func CountEdges(g *ssd.Graph, pred pathexpr.Pred) int {
	count := 0
	seen := make([]bool, g.NumNodes())
	queue := []ssd.NodeID{g.Root()}
	seen[g.Root()] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.Out(u) {
			if pred.Match(e.Label) {
				count++
			}
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return count
}

// MaxDepthTo returns the length of the shortest path to the nearest edge
// matching pred, or -1 if none is reachable. (A fixed-depth horizontal
// computation composed with the vertical search.)
func MaxDepthTo(g *ssd.Graph, pred pathexpr.Pred) int {
	type item struct {
		n ssd.NodeID
		d int
	}
	seen := make([]bool, g.NumNodes())
	queue := []item{{g.Root(), 0}}
	seen[g.Root()] = true
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, e := range g.Out(it.n) {
			if pred.Match(e.Label) {
				return it.d + 1
			}
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, item{e.To, it.d + 1})
			}
		}
	}
	return -1
}
