package ssd

import (
	"fmt"
	"sort"
)

// NodeID identifies a node within one Graph. IDs are dense: allocating n
// nodes yields IDs 0..n-1, so slices indexed by NodeID are the natural
// per-node table.
type NodeID int32

// InvalidNode is the NodeID returned by lookups that find nothing.
const InvalidNode NodeID = -1

// Edge is one outgoing labeled edge. The paper's tree type is
// set(label × tree); an Edge is one element of a node's edge set.
type Edge struct {
	Label Label
	To    NodeID
}

// Graph is a rooted, edge-labeled, possibly cyclic graph — the paper's
// unifying representation of semistructured data. Edges out of a node are
// unordered (set semantics); duplicates may exist transiently and are
// removed by Dedup. A Graph has a single distinguished root; a "database" in
// the paper's sense is whatever is accessible from that root by forward
// traversal.
//
// The zero value is not usable; call New.
type Graph struct {
	out  [][]Edge // forward adjacency, indexed by NodeID
	root NodeID
	// oid, when non-nil, assigns OEM-style object identities to nodes.
	// Identities survive serialization but are ignored by value semantics.
	oid map[NodeID]string
}

// New returns an empty graph containing just a root node.
func New() *Graph {
	g := &Graph{root: 0}
	g.out = append(g.out, nil)
	return g
}

// NewWithCapacity returns an empty rooted graph with capacity hints for
// nodes, avoiding reallocation while loading bulk data.
func NewWithCapacity(nodes int) *Graph {
	g := &Graph{root: 0, out: make([][]Edge, 1, max(1, nodes))}
	return g
}

// Root returns the distinguished root node.
func (g *Graph) Root() NodeID { return g.root }

// SetRoot changes the distinguished root. It panics if n is out of range.
func (g *Graph) SetRoot(n NodeID) {
	g.check(n)
	g.root = n
}

// NumNodes returns the number of allocated nodes (including unreachable ones).
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the total number of edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// AddNode allocates a fresh node with no edges and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.out = append(g.out, nil)
	return NodeID(len(g.out) - 1)
}

// AddNodes allocates k fresh nodes and returns the ID of the first; the rest
// follow consecutively.
func (g *Graph) AddNodes(k int) NodeID {
	first := NodeID(len(g.out))
	for i := 0; i < k; i++ {
		g.out = append(g.out, nil)
	}
	return first
}

// AddEdge appends an edge from → (label) → to. Set semantics mean duplicate
// additions are tolerated; call Dedup to canonicalize.
func (g *Graph) AddEdge(from NodeID, label Label, to NodeID) {
	g.check(from)
	g.check(to)
	g.out[from] = append(g.out[from], Edge{Label: label, To: to})
}

// AddLeaf allocates a fresh leaf node, adds an edge from → (label) → leaf,
// and returns the leaf. It is the idiom for attaching data edges such as
// Title → "Casablanca".
func (g *Graph) AddLeaf(from NodeID, label Label) NodeID {
	leaf := g.AddNode()
	g.AddEdge(from, label, leaf)
	return leaf
}

// Out returns the outgoing edge slice of n. The slice is owned by the graph
// and must not be mutated by callers.
func (g *Graph) Out(n NodeID) []Edge {
	g.check(n)
	return g.out[n]
}

// OutDegree returns the number of outgoing edges of n.
func (g *Graph) OutDegree(n NodeID) int {
	g.check(n)
	return len(g.out[n])
}

// Lookup returns the targets of edges out of n whose label equals l
// (using Label.Equal, so 2 and 2.0 match).
func (g *Graph) Lookup(n NodeID, l Label) []NodeID {
	g.check(n)
	var out []NodeID
	for _, e := range g.out[n] {
		if e.Label.Equal(l) {
			out = append(out, e.To)
		}
	}
	return out
}

// LookupFirst returns the first target of an edge labeled l out of n, or
// InvalidNode if none exists.
func (g *Graph) LookupFirst(n NodeID, l Label) NodeID {
	g.check(n)
	for _, e := range g.out[n] {
		if e.Label.Equal(l) {
			return e.To
		}
	}
	return InvalidNode
}

// SetOID assigns an OEM object identity to a node. Identities are metadata:
// value semantics (bisimulation) ignores them, but codecs preserve them.
func (g *Graph) SetOID(n NodeID, id string) {
	g.check(n)
	if g.oid == nil {
		g.oid = make(map[NodeID]string)
	}
	g.oid[n] = id
}

// OIDOf returns the object identity of n, if one was assigned.
func (g *Graph) OIDOf(n NodeID) (string, bool) {
	id, ok := g.oid[n]
	return id, ok
}

// NodeByOID returns the node carrying the given object identity, or
// InvalidNode. It is a linear scan; OEM codecs that need fast lookup keep
// their own map.
func (g *Graph) NodeByOID(id string) NodeID {
	for n, v := range g.oid {
		if v == id {
			return n
		}
	}
	return InvalidNode
}

// SortEdges orders every node's edge set (by label, then target). It makes
// traversal order deterministic for printing and tests; set semantics are
// unaffected.
func (g *Graph) SortEdges() {
	for _, es := range g.out {
		sort.Slice(es, func(i, j int) bool {
			if c := es[i].Label.Compare(es[j].Label); c != 0 {
				return c < 0
			}
			return es[i].To < es[j].To
		})
	}
}

// Dedup removes duplicate (label, target) edges node by node, enforcing the
// set semantics of the model. It sorts edge lists as a side effect.
func (g *Graph) Dedup() {
	g.SortEdges()
	for n, es := range g.out {
		if len(es) < 2 {
			continue
		}
		w := 1
		for i := 1; i < len(es); i++ {
			if es[i].Label == es[w-1].Label && es[i].To == es[w-1].To {
				continue
			}
			es[w] = es[i]
			w++
		}
		g.out[n] = es[:w]
	}
}

// Accessible returns a copy of g restricted to the part accessible from the
// root — the paper's point 4 in §3: queries concern what is reachable by
// forward traversal. The second result maps old node IDs to new ones
// (InvalidNode for dropped nodes).
func (g *Graph) Accessible() (*Graph, []NodeID) {
	seen := ReachableFrom(g, g.root)
	remap := make([]NodeID, len(g.out))
	h := &Graph{}
	for n := range g.out {
		if seen[n] {
			remap[n] = NodeID(len(h.out))
			h.out = append(h.out, nil)
		} else {
			remap[n] = InvalidNode
		}
	}
	for n, es := range g.out {
		if !seen[n] {
			continue
		}
		nn := remap[n]
		for _, e := range es {
			h.out[nn] = append(h.out[nn], Edge{Label: e.Label, To: remap[e.To]})
		}
	}
	h.root = remap[g.root]
	for n, id := range g.oid {
		if seen[n] {
			h.SetOID(remap[n], id)
		}
	}
	return h, remap
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	h := &Graph{root: g.root, out: make([][]Edge, len(g.out))}
	for n, es := range g.out {
		h.out[n] = append([]Edge(nil), es...)
	}
	if g.oid != nil {
		h.oid = make(map[NodeID]string, len(g.oid))
		for n, id := range g.oid {
			h.oid[n] = id
		}
	}
	return h
}

// Graft copies the subgraph of src accessible from srcNode into g and
// returns the node of g corresponding to srcNode. It is the building block
// for constructing query results that embed pieces of the input database.
func (g *Graph) Graft(src *Graph, srcNode NodeID) NodeID {
	src.check(srcNode)
	// Iterative traversal so deep (ACeDB-style) trees do not overflow the
	// goroutine stack.
	remap := make(map[NodeID]NodeID)
	root := g.addNodeFor(srcNode, remap)
	work := []NodeID{srcNode}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		nn := remap[n]
		for _, e := range src.out[n] {
			to, fresh := remapOrAdd(g, e.To, remap)
			g.AddEdge(nn, e.Label, to)
			if fresh {
				work = append(work, e.To)
			}
		}
	}
	return root
}

func (g *Graph) addNodeFor(n NodeID, remap map[NodeID]NodeID) NodeID {
	nn := g.AddNode()
	remap[n] = nn
	return nn
}

func remapOrAdd(g *Graph, n NodeID, remap map[NodeID]NodeID) (NodeID, bool) {
	if nn, ok := remap[n]; ok {
		return nn, false
	}
	return g.addNodeFor(n, remap), true
}

// Union returns a fresh node of g whose edge set is the union of the edge
// sets of a and b — the tree-union operation the paper notes is easy in the
// edge-labeled model and hard in the node-labeled one.
func (g *Graph) Union(a, b NodeID) NodeID {
	g.check(a)
	g.check(b)
	u := g.AddNode()
	g.out[u] = append(g.out[u], g.out[a]...)
	g.out[u] = append(g.out[u], g.out[b]...)
	return u
}

// IsLeaf reports whether n has no outgoing edges (the empty tree {}).
func (g *Graph) IsLeaf(n NodeID) bool {
	g.check(n)
	return len(g.out[n]) == 0
}

// Labels returns the distinct labels appearing on edges out of n, sorted.
func (g *Graph) Labels(n NodeID) []Label {
	g.check(n)
	seen := make(map[Label]bool, len(g.out[n]))
	var ls []Label
	for _, e := range g.out[n] {
		if !seen[e.Label] {
			seen[e.Label] = true
			ls = append(ls, e.Label)
		}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Less(ls[j]) })
	return ls
}

// AllLabels returns the distinct labels in the whole graph, sorted.
func (g *Graph) AllLabels() []Label {
	seen := make(map[Label]bool)
	var ls []Label
	for _, es := range g.out {
		for _, e := range es {
			if !seen[e.Label] {
				seen[e.Label] = true
				ls = append(ls, e.Label)
			}
		}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Less(ls[j]) })
	return ls
}

// Stats summarizes a graph for reporting.
type Stats struct {
	Nodes, Edges  int
	Leaves        int
	DistinctLabel int
	MaxOutDegree  int
}

// ComputeStats gathers Stats over the whole graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: len(g.out)}
	labels := make(map[Label]struct{})
	for _, es := range g.out {
		s.Edges += len(es)
		if len(es) == 0 {
			s.Leaves++
		}
		if len(es) > s.MaxOutDegree {
			s.MaxOutDegree = len(es)
		}
		for _, e := range es {
			labels[e.Label] = struct{}{}
		}
	}
	s.DistinctLabel = len(labels)
	return s
}

// Reverse returns the reversed adjacency: in[to] lists (label, from) pairs.
// Several algorithms (bisimulation refinement, DataGuide maintenance) need
// backward edges; the core model stores only forward ones.
func (g *Graph) Reverse() [][]Edge {
	in := make([][]Edge, len(g.out))
	for from, es := range g.out {
		for _, e := range es {
			in[e.To] = append(in[e.To], Edge{Label: e.Label, To: NodeID(from)})
		}
	}
	return in
}

func (g *Graph) check(n NodeID) {
	if n < 0 || int(n) >= len(g.out) {
		panic(fmt.Sprintf("ssd: node %d out of range [0,%d)", n, len(g.out)))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
