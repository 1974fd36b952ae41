package ssd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildMovieFragment(t *testing.T) *Graph {
	t.Helper()
	g := New()
	entry := g.AddNode()
	g.AddEdge(g.Root(), Sym("Entry"), entry)
	movie := g.AddNode()
	g.AddEdge(entry, Sym("Movie"), movie)
	g.AddLeaf(movie, Sym("Title"))
	title := g.LookupFirst(movie, Sym("Title"))
	g.AddLeaf(title, Str("Casablanca"))
	cast := g.AddNode()
	g.AddEdge(movie, Sym("Cast"), cast)
	one := g.AddLeaf(cast, Int(1))
	g.AddLeaf(one, Str("Bogart"))
	two := g.AddLeaf(cast, Int(2))
	g.AddLeaf(two, Str("Bacall"))
	return g
}

func TestGraphBasics(t *testing.T) {
	g := New()
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatalf("fresh graph: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	n := g.AddNode()
	g.AddEdge(g.Root(), Sym("a"), n)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.OutDegree(g.Root()) != 1 {
		t.Fatalf("OutDegree(root) = %d", g.OutDegree(g.Root()))
	}
	if !g.IsLeaf(n) {
		t.Error("n should be a leaf")
	}
	if g.IsLeaf(g.Root()) {
		t.Error("root should not be a leaf")
	}
}

func TestAddNodes(t *testing.T) {
	g := New()
	first := g.AddNodes(5)
	if first != 1 {
		t.Fatalf("first = %d", first)
	}
	if g.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
}

func TestLookup(t *testing.T) {
	g := buildMovieFragment(t)
	entry := g.LookupFirst(g.Root(), Sym("Entry"))
	if entry == InvalidNode {
		t.Fatal("Entry edge not found")
	}
	movie := g.LookupFirst(entry, Sym("Movie"))
	if movie == InvalidNode {
		t.Fatal("Movie edge not found")
	}
	if got := g.LookupFirst(movie, Sym("Nope")); got != InvalidNode {
		t.Errorf("LookupFirst missing label = %d, want InvalidNode", got)
	}
	cast := g.LookupFirst(movie, Sym("Cast"))
	// Numeric overloading: Lookup with Float(1.0) should find the Int(1) edge.
	if got := g.Lookup(cast, Float(1.0)); len(got) != 1 {
		t.Errorf("Lookup(Float(1.0)) = %v, want one match", got)
	}
}

func TestDedup(t *testing.T) {
	g := New()
	n := g.AddNode()
	for i := 0; i < 4; i++ {
		g.AddEdge(g.Root(), Sym("a"), n)
	}
	g.AddEdge(g.Root(), Sym("b"), n)
	g.Dedup()
	if got := g.OutDegree(g.Root()); got != 2 {
		t.Fatalf("after Dedup OutDegree = %d, want 2", got)
	}
}

func TestReachableAndAccessible(t *testing.T) {
	g := New()
	a := g.AddLeaf(g.Root(), Sym("a"))
	orphan := g.AddNode()
	g.AddEdge(orphan, Sym("x"), a)
	seen := ReachableFrom(g, g.Root())
	if !seen[g.Root()] || !seen[a] || seen[orphan] {
		t.Fatalf("ReachableFrom = %v", seen)
	}
	h, remap := g.Accessible()
	if h.NumNodes() != 2 {
		t.Fatalf("Accessible nodes = %d, want 2", h.NumNodes())
	}
	if remap[orphan] != InvalidNode {
		t.Error("orphan should remap to InvalidNode")
	}
	if h.OutDegree(h.Root()) != 1 {
		t.Error("root edge lost")
	}
}

func TestAccessiblePreservesCycles(t *testing.T) {
	g := New()
	a := g.AddLeaf(g.Root(), Sym("a"))
	g.AddEdge(a, Sym("back"), g.Root())
	h, _ := g.Accessible()
	if h.NumNodes() != 2 || h.NumEdges() != 2 {
		t.Fatalf("cycle not preserved: %d nodes %d edges", h.NumNodes(), h.NumEdges())
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildMovieFragment(t)
	g.SetOID(g.Root(), "r")
	h := g.Clone()
	h.AddLeaf(h.Root(), Sym("extra"))
	h.SetOID(h.Root(), "changed")
	if g.OutDegree(g.Root()) == h.OutDegree(h.Root()) {
		t.Error("clone shares edge storage")
	}
	if id, _ := g.OIDOf(g.Root()); id != "r" {
		t.Error("clone shares oid map")
	}
}

func TestGraft(t *testing.T) {
	src := buildMovieFragment(t)
	dst := New()
	n := dst.Graft(src, src.Root())
	dst.AddEdge(dst.Root(), Sym("copy"), n)
	if dst.NumEdges() != src.NumEdges()+1 {
		t.Fatalf("graft edges = %d, want %d", dst.NumEdges(), src.NumEdges()+1)
	}
	// Mutating the source must not affect the graft.
	src.AddLeaf(src.Root(), Sym("new"))
	if dst.NumEdges() != 10 {
		t.Fatalf("graft affected by source mutation: %d edges", dst.NumEdges())
	}
}

func TestGraftCycle(t *testing.T) {
	src := New()
	a := src.AddLeaf(src.Root(), Sym("a"))
	src.AddEdge(a, Sym("back"), src.Root())
	dst := New()
	n := dst.Graft(src, src.Root())
	// follow a then back: should return to n.
	an := dst.LookupFirst(n, Sym("a"))
	if got := dst.LookupFirst(an, Sym("back")); got != n {
		t.Fatalf("cycle not preserved by Graft: back leads to %d, want %d", got, n)
	}
}

func TestGraftDeepTree(t *testing.T) {
	// ACeDB-style arbitrary-depth chain; must not overflow the stack.
	src := New()
	cur := src.Root()
	const depth = 200000
	for i := 0; i < depth; i++ {
		cur = src.AddLeaf(cur, Sym("next"))
	}
	dst := New()
	dst.Graft(src, src.Root())
	if dst.NumEdges() != depth {
		t.Fatalf("deep graft edges = %d, want %d", dst.NumEdges(), depth)
	}
}

func TestUnion(t *testing.T) {
	g := New()
	a := g.AddNode()
	g.AddLeaf(a, Sym("x"))
	b := g.AddNode()
	g.AddLeaf(b, Sym("y"))
	u := g.Union(a, b)
	if g.OutDegree(u) != 2 {
		t.Fatalf("union degree = %d", g.OutDegree(u))
	}
	if g.LookupFirst(u, Sym("x")) == InvalidNode || g.LookupFirst(u, Sym("y")) == InvalidNode {
		t.Error("union lost an edge")
	}
}

func TestOIDs(t *testing.T) {
	g := New()
	g.SetOID(g.Root(), "o1")
	n := g.AddNode()
	g.SetOID(n, "o2")
	if id, ok := g.OIDOf(g.Root()); !ok || id != "o1" {
		t.Errorf("OIDOf(root) = %q, %v", id, ok)
	}
	if got := g.NodeByOID("o2"); got != n {
		t.Errorf("NodeByOID(o2) = %d, want %d", got, n)
	}
	if got := g.NodeByOID("missing"); got != InvalidNode {
		t.Errorf("NodeByOID(missing) = %d", got)
	}
}

func TestLabelsAndAllLabels(t *testing.T) {
	g := buildMovieFragment(t)
	movie := g.LookupFirst(g.LookupFirst(g.Root(), Sym("Entry")), Sym("Movie"))
	ls := g.Labels(movie)
	if len(ls) != 2 { // Title, Cast
		t.Fatalf("Labels(movie) = %v", ls)
	}
	all := g.AllLabels()
	// Distinct: Entry, Movie, Title, Cast, 1, 2, and three strings.
	if len(all) != 9 {
		t.Fatalf("AllLabels = %v (len %d)", all, len(all))
	}
}

func TestComputeStats(t *testing.T) {
	g := buildMovieFragment(t)
	s := g.ComputeStats()
	if s.Edges != 9 || s.Nodes != g.NumNodes() {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxOutDegree != 2 {
		t.Errorf("MaxOutDegree = %d", s.MaxOutDegree)
	}
	if s.Leaves == 0 {
		t.Error("no leaves counted")
	}
}

func TestReverse(t *testing.T) {
	g := New()
	a := g.AddLeaf(g.Root(), Sym("a"))
	b := g.AddLeaf(g.Root(), Sym("b"))
	g.AddEdge(a, Sym("c"), b)
	in := g.Reverse()
	if len(in[b]) != 2 {
		t.Fatalf("in-degree of b = %d, want 2", len(in[b]))
	}
	if len(in[g.Root()]) != 0 {
		t.Error("root should have no in-edges")
	}
}

func TestCheckPanics(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range node")
		}
	}()
	g.Out(NodeID(99))
}

// Property: Dedup is idempotent and never increases edge count.
func TestDedupProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		nodes := []NodeID{g.Root()}
		for i := 0; i < 20; i++ {
			nodes = append(nodes, g.AddNode())
		}
		labels := []Label{Sym("a"), Sym("b"), Int(1), Str("x")}
		for i := 0; i < 100; i++ {
			from := nodes[rng.Intn(len(nodes))]
			to := nodes[rng.Intn(len(nodes))]
			g.AddEdge(from, labels[rng.Intn(len(labels))], to)
		}
		before := g.NumEdges()
		g.Dedup()
		mid := g.NumEdges()
		g.Dedup()
		after := g.NumEdges()
		return mid <= before && after == mid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Accessible twice is the same as once (idempotent up to node count).
func TestAccessibleIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		nodes := []NodeID{g.Root()}
		for i := 0; i < 15; i++ {
			nodes = append(nodes, g.AddNode())
		}
		for i := 0; i < 40; i++ {
			g.AddEdge(nodes[rng.Intn(len(nodes))], Sym("e"), nodes[rng.Intn(len(nodes))])
		}
		h, _ := g.Accessible()
		h2, _ := h.Accessible()
		return h.NumNodes() == h2.NumNodes() && h.NumEdges() == h2.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
