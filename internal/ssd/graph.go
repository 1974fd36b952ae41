package ssd

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"sync/atomic"
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
// A graph is a base plus an overlay. The base is a CSR of the first nb
// nodes: node n's edges are edges[off[n]:off[n+1]]. Neither array holds a
// pointer, and nothing ever writes them, so every clone shares its base.
// The overlay holds the edge lists written since the base was built, and
// every write goes to the overlay: a base node's list is copied into it
// before its first edit.
//
// The zero value is not usable; call New.
type Graph struct {
	off   []uint32 // len nb+1, or nil for an empty base
	edges []Edge
	// spine holds the overlay, indexed by NodeID, in chunks of spineLen
	// nodes; it always covers every node. A nil chunk, or a nil list in a
	// chunk, means the node's list is its base list (empty past the base).
	// CloneShared copies the spine but not its chunks: a chunk is shared
	// until a graph writes it, and a graph writes in place only the chunks
	// that carry its epoch (see slot).
	spine []*spineChunk
	slots int // overlay node slots, the sum of len(c.out) over the spine
	n     int // nodes
	epoch atomic.Uint64
	root  NodeID
	// oid, when non-nil, assigns OEM-style object identities to nodes.
	// Identities survive serialization but are ignored by value semantics.
	oid map[NodeID]string
}

const (
	spineBits = 8
	spineLen  = 1 << spineBits
)

// foldDiv sets when CloneShared folds the overlay into a new base: once the
// overlay holds more node slots than 1/foldDiv of the base's nodes. A slot
// is a 24-byte list header against a base node's 4-byte offset, so at that
// size the overlay's headers alone outweigh the base's offsets; and since a
// fold costs O(base) and comes at most once per nb/foldDiv slots written,
// each slot written pays for copying foldDiv base nodes at most.
const foldDiv = 4

// spineChunk holds the overlay lists of up to spineLen consecutive nodes.
type spineChunk struct {
	epoch uint64 // the epoch of the one graph that may write it in place
	// own marks the lists whose backing array this chunk's graph allocated
	// after the chunk was made; any other list may be shared with another
	// graph and is copied before it is written.
	own [spineLen / 64]uint64
	out [][]Edge
}

// epochs hands out graph epochs. Epoch 0 is every graph's until its first
// CloneShared, which gives the original and the clone fresh ones.
var epochs atomic.Uint64

// New returns an empty graph containing just a root node.
func New() *Graph {
	g := &Graph{}
	g.AddNode()
	return g
}

// NewWithCapacity returns an empty rooted graph with capacity hints for
// nodes, avoiding reallocation while loading bulk data.
func NewWithCapacity(nodes int) *Graph {
	g := &Graph{spine: make([]*spineChunk, 0, max(1, nodes)>>spineBits+1)}
	g.AddNode()
	return g
}

// FromCSR returns the graph, rooted at node 0, whose base is the given CSR:
// node n's edges are edges[off[n]:off[n+1]], for the len(off)-1 >= 1 nodes.
// The graph takes ownership of both arrays, which no one may write
// afterwards. It panics if off is not a non-decreasing run from 0 to
// len(edges) or an edge target is out of range.
func FromCSR(off []uint32, edges []Edge) *Graph {
	n := len(off) - 1
	if n < 1 || off[0] != 0 || int(off[n]) != len(edges) {
		panic("ssd: FromCSR: offsets do not span the edges")
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			panic("ssd: FromCSR: offsets decrease")
		}
	}
	for _, e := range edges {
		if e.To < 0 || int(e.To) >= n {
			panic(fmt.Sprintf("ssd: FromCSR: edge target %d out of range [0,%d)", e.To, n))
		}
	}
	return &Graph{off: off, edges: edges, spine: make([]*spineChunk, (n+spineLen-1)>>spineBits), n: n}
}

// out returns n's edge list; n is in range. A base list is cut with its
// capacity at its length, so no append through it reaches the next node;
// an empty one is nil, as a leaf's list always was.
func (g *Graph) out(n NodeID) []Edge {
	if c := g.spine[n>>spineBits]; c != nil {
		if j := int(n & (spineLen - 1)); j < len(c.out) && c.out[j] != nil {
			return c.out[j]
		}
	}
	if int(n) < len(g.off)-1 {
		if lo, hi := g.off[n], g.off[n+1]; lo < hi {
			return g.edges[lo:hi:hi]
		}
	}
	return nil
}

// slot returns n's overlay list for writing; n is in range. The list is
// the graph's own: it first copies n's chunk if g does not own it, and n's
// list (from the base, or from a chunk it shares) if g did not allocate it.
func (g *Graph) slot(n NodeID) *[]Edge {
	c := g.chunk(int(n >> spineBits))
	j := int(n & (spineLen - 1))
	if j >= len(c.out) {
		g.slots += j + 1 - len(c.out)
		c.out = append(c.out, make([][]Edge, j+1-len(c.out))...)
	}
	if bit := uint64(1) << (j & 63); c.own[j>>6]&bit == 0 {
		c.own[j>>6] |= bit
		es := g.out(n)
		c.out[j] = append(make([]Edge, 0, len(es)+1), es...)
	}
	return &c.out[j]
}

// chunk returns spine chunk i, made first if there is none and copied first
// if g does not own it.
func (g *Graph) chunk(i int) *spineChunk {
	c := g.spine[i]
	if e := g.epoch.Load(); c == nil {
		c = &spineChunk{epoch: e}
		g.spine[i] = c
	} else if c.epoch != e {
		c = &spineChunk{epoch: e, out: append(make([][]Edge, 0, cap(c.out)), c.out...)}
		g.spine[i] = c
	}
	return c
}

// folded returns a graph equal to g whose base holds all of g's lists, in
// the same node order and edge order, and whose overlay is empty. The
// spine has room for extra more nodes.
func (g *Graph) folded(extra int) *Graph {
	off := make([]uint32, g.n+1)
	for n := range g.n {
		off[n+1] = off[n] + uint32(len(g.out(NodeID(n))))
	}
	edges := make([]Edge, 0, off[g.n])
	for n := range g.n {
		edges = append(edges, g.out(NodeID(n))...)
	}
	h := &Graph{off: off, edges: edges, n: g.n, root: g.root, oid: maps.Clone(g.oid)}
	h.spine = make([]*spineChunk, (g.n+spineLen-1)>>spineBits, (g.n+max(extra, 0))>>spineBits+1)
	return h
}

// overlayHeavy reports whether g's overlay has outgrown its base (foldDiv).
func (g *Graph) overlayHeavy() bool { return g.slots > max(len(g.off)-1, 0)/foldDiv }

// lists yields every node's edge list in NodeID order.
func (g *Graph) lists() iter.Seq2[NodeID, []Edge] {
	return func(yield func(NodeID, []Edge) bool) {
		for n := range NodeID(g.n) {
			if !yield(n, g.out(n)) {
				return
			}
		}
	}
}

// Root returns the distinguished root node.
func (g *Graph) Root() NodeID { return g.root }

// SetRoot changes the distinguished root. It panics if n is out of range.
func (g *Graph) SetRoot(n NodeID) {
	g.check(n)
	g.root = n
}

// NumNodes returns the number of allocated nodes (including unreachable ones).
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the total number of edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.lists() {
		n += len(es)
	}
	return n
}

// AddNode allocates a fresh node with no edges and returns its ID.
func (g *Graph) AddNode() NodeID {
	n := g.n
	if n == len(g.spine)<<spineBits {
		g.spine = append(g.spine, nil)
	}
	g.n++
	return NodeID(n)
}

// AddNodes allocates k fresh nodes and returns the ID of the first; the rest
// follow consecutively.
func (g *Graph) AddNodes(k int) NodeID {
	first := NodeID(g.n)
	for i := 0; i < k; i++ {
		g.AddNode()
	}
	return first
}

// AddEdge appends an edge from → (label) → to. Set semantics mean duplicate
// additions are tolerated; call Dedup to canonicalize.
func (g *Graph) AddEdge(from NodeID, label Label, to NodeID) {
	g.check(from)
	g.check(to)
	p := g.slot(from)
	*p = append(*p, Edge{Label: label, To: to})
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
	return g.out(n)
}

// OutDegree returns the number of outgoing edges of n.
func (g *Graph) OutDegree(n NodeID) int {
	g.check(n)
	return len(g.out(n))
}

// Lookup returns the targets of edges out of n whose label equals l
// (using Label.Equal, so 2 and 2.0 match).
func (g *Graph) Lookup(n NodeID, l Label) []NodeID {
	g.check(n)
	var out []NodeID
	for _, e := range g.out(n) {
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
	for _, e := range g.out(n) {
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
// unaffected. Like every write it edits only the graph's own overlay: a
// list already in order is left where it is.
func (g *Graph) SortEdges() {
	for n, es := range g.lists() {
		if !slices.IsSortedFunc(es, cmpEdge) {
			slices.SortFunc(*g.slot(n), cmpEdge)
		}
	}
}

// cmpEdge orders edges by label (Label.Less), then by target.
func cmpEdge(a, b Edge) int {
	switch {
	case a.Label != b.Label && a.Label.Less(b.Label):
		return -1
	case a.Label != b.Label:
		return 1
	}
	return int(a.To) - int(b.To)
}

// Dedup removes duplicate (label, target) edges node by node, enforcing the
// set semantics of the model. It sorts edge lists as a side effect.
func (g *Graph) Dedup() {
	g.SortEdges()
	for n, es := range g.lists() {
		for i := 1; i < len(es); i++ {
			if es[i] == es[i-1] {
				p := g.slot(n)
				*p = slices.Compact(*p)
				break
			}
		}
	}
}

// Accessible returns a copy of g restricted to the part accessible from the
// root — the paper's point 4 in §3: queries concern what is reachable by
// forward traversal. The copy is all base. The second result maps old node
// IDs to new ones (InvalidNode for dropped nodes).
func (g *Graph) Accessible() (*Graph, []NodeID) {
	seen := ReachableFrom(g, g.root)
	remap := make([]NodeID, g.n)
	k := 0
	for n := range remap {
		remap[n] = InvalidNode
		if seen[n] {
			remap[n] = NodeID(k)
			k++
		}
	}
	off := make([]uint32, 1, k+1)
	for n, es := range g.lists() {
		if seen[n] {
			off = append(off, off[len(off)-1]+uint32(len(es)))
		}
	}
	edges := make([]Edge, 0, off[k])
	for n, es := range g.lists() {
		if seen[n] {
			for _, e := range es {
				edges = append(edges, Edge{Label: e.Label, To: remap[e.To]})
			}
		}
	}
	h := FromCSR(off, edges)
	h.root = remap[g.root]
	for n, id := range g.oid {
		if seen[n] {
			h.SetOID(remap[n], id)
		}
	}
	return h, remap
}

// Clone returns a deep copy of the graph, all base.
func (g *Graph) Clone() *Graph { return g.folded(0) }

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
		for _, e := range src.out(n) {
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
	p := g.slot(u)
	*p = append(append(*p, g.out(a)...), g.out(b)...)
	return u
}

// IsLeaf reports whether n has no outgoing edges (the empty tree {}).
func (g *Graph) IsLeaf(n NodeID) bool {
	g.check(n)
	return len(g.out(n)) == 0
}

// Labels returns the distinct labels appearing on edges out of n, sorted.
func (g *Graph) Labels(n NodeID) []Label {
	g.check(n)
	seen := make(map[Label]bool, len(g.out(n)))
	var ls []Label
	for _, e := range g.out(n) {
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
	for _, es := range g.lists() {
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
	s := Stats{Nodes: g.n}
	labels := make(map[Label]struct{})
	for _, es := range g.lists() {
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
	in := make([][]Edge, g.n)
	for from, es := range g.lists() {
		for _, e := range es {
			in[e.To] = append(in[e.To], Edge{Label: e.Label, To: from})
		}
	}
	return in
}

func (g *Graph) check(n NodeID) {
	if n < 0 || int(n) >= g.n {
		panic(fmt.Sprintf("ssd: node %d out of range [0,%d)", n, g.n))
	}
}
