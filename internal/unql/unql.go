// Package unql implements the second computational strategy of §3 of the
// paper: structural recursion on the recursive type of labeled trees, the
// basis of UnQL [10, 11]. The central operation is GExt ("graph extension"):
// a function is applied to every edge of the input graph and contributes a
// small output fragment between the output images of the edge's endpoints.
// Allocating exactly one output node per input node — instead of recursing
// into subtrees — is precisely the restriction that makes these recursive
// programs well-defined on cyclic data; the unmemoized tree unfolding
// (GExtTree) is provided as the E6 baseline and requires a depth bound to
// terminate on cycles.
//
// The algebra's two components (§3) appear as:
//
//   - horizontal: the per-edge Rewriter, which computes across the edges of
//     a node (and hence to any fixed depth via composition);
//   - vertical: the traversal to arbitrary depth built into GExt itself and
//     the DeepSelect/Collect operations in ops.go.
//
// Epsilon edges (empty paths in an Action) express deletion-by-short-circuit
// — the "collapsing edges" and "short-circuiting paths" restructurings the
// paper lists — and are eliminated before the result is returned.
package unql

import (
	"fmt"

	"repro/internal/ssd"
)

// Action is the output fragment a Rewriter contributes for one input edge
// (u, l, v). Each element of Paths is a label sequence that becomes a chain
// of fresh edges from O(u) to O(v); the empty sequence is an epsilon edge
// (identifying O(u)'s continuation with O(v) without consuming a label).
// Attach adds constant subtrees at O(u), independent of O(v).
type Action struct {
	Paths  [][]ssd.Label
	Attach []Attachment
}

// Attachment grafts a constant tree below O(u) under Label.
type Attachment struct {
	Label ssd.Label
	Tree  *ssd.Graph // grafted from its root
}

// Convenience actions.

// Keep preserves the edge unchanged.
func Keep(l ssd.Label) Action { return Action{Paths: [][]ssd.Label{{l}}} }

// Drop removes the edge (the target subtree survives only if reachable some
// other way).
func Drop() Action { return Action{} }

// RelabelTo replaces the edge label.
func RelabelTo(l ssd.Label) Action { return Action{Paths: [][]ssd.Label{{l}}} }

// ShortCircuit replaces the edge with an epsilon: the subtree's edges are
// hoisted to the edge's source ("collapsing" the edge).
func ShortCircuit() Action { return Action{Paths: [][]ssd.Label{{}}} }

// ExpandTo replaces the edge with a chain of labels.
func ExpandTo(ls ...ssd.Label) Action { return Action{Paths: [][]ssd.Label{ls}} }

// Rewriter computes the output fragment for one input edge. It sees the
// label, the edge endpoints and the input graph (for context inspection —
// e.g. "is the target a leaf?").
type Rewriter func(l ssd.Label, from, to ssd.NodeID, g *ssd.Graph) Action

// GExt applies the rewriter to every edge reachable from g's root and
// returns the rewritten graph. One output node is allocated per reachable
// input node (memoization over nodes, not paths), so GExt is linear in the
// input even when the input has cycles.
func GExt(g *ssd.Graph, f Rewriter) *ssd.Graph {
	out := ssd.NewWithCapacity(g.NumNodes())
	omap := make([]ssd.NodeID, g.NumNodes())
	for i := range omap {
		omap[i] = ssd.InvalidNode
	}
	omap[g.Root()] = out.Root()

	var eps [][2]ssd.NodeID // epsilon edges (from, to) in out

	obtain := func(n ssd.NodeID) ssd.NodeID {
		if omap[n] == ssd.InvalidNode {
			omap[n] = out.AddNode()
		}
		return omap[n]
	}

	// BFS over reachable input nodes.
	seen := make([]bool, g.NumNodes())
	queue := []ssd.NodeID{g.Root()}
	seen[g.Root()] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		ou := obtain(u)
		for _, e := range g.Out(u) {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
			ov := obtain(e.To)
			act := f(e.Label, u, e.To, g)
			for _, path := range act.Paths {
				addPath(out, ou, ov, path, &eps)
			}
			for _, at := range act.Attach {
				sub := out.Graft(at.Tree, at.Tree.Root())
				out.AddEdge(ou, at.Label, sub)
			}
		}
	}
	return accessibleSet(eliminateEpsilons(out, eps))
}

// addPath lays a label chain from ou to ov, creating intermediate nodes;
// the empty chain records an epsilon edge.
func addPath(out *ssd.Graph, ou, ov ssd.NodeID, path []ssd.Label, eps *[][2]ssd.NodeID) {
	if len(path) == 0 {
		*eps = append(*eps, [2]ssd.NodeID{ou, ov})
		return
	}
	cur := ou
	for i, l := range path {
		if i == len(path)-1 {
			out.AddEdge(cur, l, ov)
		} else {
			cur = out.AddLeaf(cur, l)
		}
	}
}

// eliminateEpsilons rewrites a graph with epsilon edges into a plain graph:
// every node additionally acquires the real out-edges of everything in its
// epsilon closure.
func eliminateEpsilons(g *ssd.Graph, eps [][2]ssd.NodeID) *ssd.Graph {
	if len(eps) == 0 {
		return g
	}
	n := g.NumNodes()
	adj := make([][]ssd.NodeID, n)
	for _, e := range eps {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	for v := 0; v < n; v++ {
		if adj[v] == nil {
			continue
		}
		// Epsilon closure of v.
		seen := map[ssd.NodeID]bool{ssd.NodeID(v): true}
		stack := append([]ssd.NodeID(nil), adj[v]...)
		for len(stack) > 0 {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[w] {
				continue
			}
			seen[w] = true
			stack = append(stack, adj[w]...)
		}
		for w := range seen {
			if w == ssd.NodeID(v) {
				continue
			}
			for _, e := range g.Out(w) {
				g.AddEdge(ssd.NodeID(v), e.Label, e.To)
			}
		}
	}
	return g
}

// GExtTree is the unmemoized tree-unfolding semantics of the same recursion:
// it recurses into each subtree separately, so shared subtrees are copied
// once per path and cyclic inputs would diverge — hence the mandatory depth
// bound. It exists to demonstrate (tests) and measure (experiment E6) why
// the restriction to one-output-node-per-input-node matters; on acyclic
// inputs within the bound it agrees with GExt up to bisimulation.
//
// It returns an error if the depth bound is exceeded, which on cyclic input
// is guaranteed.
func GExtTree(g *ssd.Graph, f Rewriter, maxDepth int) (*ssd.Graph, error) {
	out := ssd.New()
	eps := [][2]ssd.NodeID{}
	var rec func(u ssd.NodeID, ou ssd.NodeID, depth int) error
	rec = func(u ssd.NodeID, ou ssd.NodeID, depth int) error {
		if depth > maxDepth {
			return fmt.Errorf("unql: depth bound %d exceeded (cyclic or too-deep input)", maxDepth)
		}
		for _, e := range g.Out(u) {
			ov := out.AddNode()
			act := f(e.Label, u, e.To, g)
			for _, path := range act.Paths {
				addPath(out, ou, ov, path, &eps)
			}
			for _, at := range act.Attach {
				sub := out.Graft(at.Tree, at.Tree.Root())
				out.AddEdge(ou, at.Label, sub)
			}
			if err := rec(e.To, ov, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(g.Root(), out.Root(), 0); err != nil {
		return nil, err
	}
	return accessibleSet(eliminateEpsilons(out, eps)), nil
}

// accessibleSet returns the part of g accessible from its root, with every
// edge list a set. It dedups g (a result under construction, whose lists
// are its own) before Accessible copies it into a base, so no list is
// copied twice; Accessible renumbers nodes in order, which keeps each list
// sorted.
func accessibleSet(g *ssd.Graph) *ssd.Graph {
	g.Dedup()
	acc, _ := g.Accessible()
	return acc
}
