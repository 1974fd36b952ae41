package ssd

import (
	"reflect"
	"slices"
	"testing"
)

func TestDeleteEdge(t *testing.T) {
	g := New()
	a := g.AddNode()
	b := g.AddNode()
	g.AddEdge(g.Root(), Sym("x"), a)
	g.AddEdge(g.Root(), Sym("x"), b)
	g.AddEdge(g.Root(), Sym("y"), b)

	if g.DeleteEdge(g.Root(), Sym("z"), b) {
		t.Error("deleted a non-existent edge")
	}
	if !g.DeleteEdge(g.Root(), Sym("x"), b) {
		t.Fatal("DeleteEdge(x, b) = false")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if got := g.Lookup(g.Root(), Sym("x")); len(got) != 1 || got[0] != a {
		t.Fatalf("Lookup(x) = %v, want [%d]", got, a)
	}
	// Label identity, not numeric equality: Int(2) must not delete Float(2).
	g.AddEdge(g.Root(), Float(2), a)
	if g.DeleteEdge(g.Root(), Int(2), a) {
		t.Error("Int(2) deleted a Float(2) edge")
	}
	if !g.DeleteEdge(g.Root(), Float(2), a) {
		t.Error("Float(2) edge not deleted")
	}
}

func TestRelabel(t *testing.T) {
	g := New()
	a := g.AddNode()
	b := g.AddNode()
	g.AddEdge(g.Root(), Sym("old"), a)
	g.AddEdge(g.Root(), Sym("old"), b)
	g.AddEdge(g.Root(), Sym("keep"), b)

	if n := g.Relabel(g.Root(), Sym("missing"), Sym("new")); n != 0 {
		t.Fatalf("Relabel(missing) = %d, want 0", n)
	}
	if n := g.Relabel(g.Root(), Sym("old"), Sym("new")); n != 2 {
		t.Fatalf("Relabel(old) = %d, want 2", n)
	}
	if got := g.Lookup(g.Root(), Sym("new")); len(got) != 2 {
		t.Fatalf("Lookup(new) = %v, want 2 targets", got)
	}
	if got := g.Lookup(g.Root(), Sym("old")); len(got) != 0 {
		t.Fatalf("Lookup(old) = %v, want none", got)
	}
	if got := g.Lookup(g.Root(), Sym("keep")); len(got) != 1 {
		t.Fatalf("Lookup(keep) = %v, want 1 target", got)
	}
}

func TestCloneSharedIsolation(t *testing.T) {
	g := New()
	a := g.AddNode()
	b := g.AddNode()
	g.AddEdge(g.Root(), Sym("x"), a)
	g.AddEdge(a, Sym("y"), b)
	g.SetOID(a, "&a")
	before := FormatRoot(g)

	h := g.CloneShared(1)
	// Node-table level mutations need no privatization.
	c := h.AddNode()
	h.SetOID(c, "&c")
	h.SetRoot(a)
	h.SetRoot(h.Root()) // no-op
	// Edge-level mutations privatize first.
	h.PrivatizeOut(a)
	h.AddEdge(a, Sym("z"), c)
	h.Relabel(a, Sym("y"), Sym("y2"))
	h.PrivatizeOut(g.Root())
	h.DeleteEdge(g.Root(), Sym("x"), a)

	if got := FormatRoot(g); got != before {
		t.Fatalf("original changed:\n got %s\nwant %s", got, before)
	}
	if id, ok := g.OIDOf(c); ok {
		t.Fatalf("original gained oid %q for clone-allocated node", id)
	}
	if h.NumEdges() != 2 {
		t.Fatalf("clone NumEdges = %d, want 2", h.NumEdges())
	}
	if got := h.Lookup(a, Sym("y2")); len(got) != 1 || got[0] != b {
		t.Fatalf("clone Lookup(y2) = %v", got)
	}
}

// TestCloneSharedChunks: a clone shares the base and the overlay's chunks,
// so a clone of a many-chunk graph copies only the spine, and writes on
// either side after the clone — new nodes in a shared tail chunk, edits of
// base lists and of shared overlay lists, a Dedup — stay on that side and
// never reach the base.
func TestCloneSharedChunks(t *testing.T) {
	const n = 3*spineLen + 7
	g := NewWithCapacity(n)
	g.AddNodes(n - 1)
	for i := 1; i < n; i++ {
		g.AddEdge(NodeID(i-1), Int(int64(i)), NodeID(i))
	}
	g = g.Clone() // all base
	g.AddEdge(1, Sym("overlay"), 2)
	baseEdges := slices.Clone(g.edges)
	before := FormatRoot(g)

	var h *Graph
	if allocs := testing.AllocsPerRun(10, func() { h = g.CloneShared(spineLen) }); allocs > 3 {
		t.Fatalf("CloneShared made %.0f allocations, want the spine and the graph", allocs)
	}
	if &h.edges[0] != &g.edges[0] || h.spine[0] != g.spine[0] {
		t.Fatal("clone does not share the base and the overlay chunk")
	}
	hn := h.AddNode()
	h.AddEdge(0, Sym("h"), hn)
	h.AddEdge(1, Sym("h"), hn) // a list in the shared overlay chunk
	h.AddEdge(NodeID(2*spineLen), Sym("h"), hn)
	gn := g.AddNode() // the same id, in the tail chunk both share
	g.AddEdge(0, Sym("g"), gn)
	g.Relabel(1, Sym("overlay"), Sym("g"))
	if gn != hn {
		t.Fatalf("new nodes %d and %d, want equal ids", gn, hn)
	}
	g.Dedup()

	if g.OutDegree(0) != 2 || g.OutDegree(NodeID(2*spineLen)) != 1 || g.LookupFirst(0, Sym("h")) != InvalidNode || g.LookupFirst(1, Sym("h")) != InvalidNode {
		t.Fatalf("original sees the clone's writes: %v, %v, %v", g.Out(0), g.Out(1), g.Out(NodeID(2*spineLen)))
	}
	if h.OutDegree(0) != 2 || h.OutDegree(NodeID(2*spineLen)) != 2 || h.LookupFirst(0, Sym("g")) != InvalidNode || h.LookupFirst(1, Sym("overlay")) == InvalidNode {
		t.Fatalf("clone sees the original's writes: %v, %v, %v", h.Out(0), h.Out(1), h.Out(NodeID(2*spineLen)))
	}
	if !slices.Equal(g.edges, baseEdges) || !slices.Equal(h.edges, baseEdges) {
		t.Fatal("a write reached the shared base")
	}
	h.DeleteEdge(0, Sym("h"), hn)
	h.DeleteEdge(1, Sym("h"), hn)
	h.DeleteEdge(NodeID(2*spineLen), Sym("h"), hn)
	if got := FormatRoot(h); got != before {
		t.Fatalf("clone with its writes undone differs from the original before them")
	}
}

// TestCloneSharedFoldsHeavyOverlay: once the overlay holds more slots than
// 1/foldDiv of the base's nodes, a clone gets a new base holding every list
// in its node and edge order, and the original keeps its old one.
func TestCloneSharedFoldsHeavyOverlay(t *testing.T) {
	const n = 4 * spineLen
	g := New()
	g.AddNodes(n - 1)
	g = g.Clone()
	for i := 0; !g.overlayHeavy(); i += 7 {
		g.AddEdge(NodeID(i%n), Int(int64(i)), NodeID((i+1)%n))
		g.AddEdge(NodeID(i%n), Sym("a"), 0)
	}
	before, base := FormatRoot(g), g.edges
	h := g.CloneShared(0)
	if h.slots != 0 || h.NumNodes() != n || len(h.edges) != g.NumEdges() {
		t.Fatalf("clone of a heavy overlay: %d slots, %d nodes, %d base edges", h.slots, h.NumNodes(), len(h.edges))
	}
	for i := range NodeID(n) {
		if !slices.Equal(h.Out(i), g.Out(i)) {
			t.Fatalf("folded Out(%d) = %v, want %v", i, h.Out(i), g.Out(i))
		}
	}
	h.AddEdge(0, Sym("after"), 1)
	if FormatRoot(g) != before || len(g.edges) != len(base) {
		t.Fatal("the fold or a write after it changed the original")
	}
}

// TestDedupOnCloneKeepsOriginal: Dedup and SortEdges on a CloneShared
// graph rewrite the clone's own copies of the lists, never the original's.
func TestDedupOnCloneKeepsOriginal(t *testing.T) {
	for _, based := range []bool{false, true} {
		g := New()
		one, two := g.AddNode(), g.AddNode()
		g.AddEdge(g.Root(), Sym("z"), one)
		g.AddEdge(g.Root(), Sym("a"), two)
		g.AddEdge(g.Root(), Sym("a"), two)
		if based {
			g = g.Clone()
		}
		want := slices.Clone(g.Out(g.Root()))
		h := g.CloneShared(0)
		h.Dedup()
		if got := g.Out(g.Root()); !slices.Equal(got, want) {
			t.Fatalf("based=%v: original root after the clone's Dedup = %v, want %v", based, got, want)
		}
		if got := h.Out(h.Root()); len(got) != 2 || got[0].Label != Sym("a") {
			t.Fatalf("based=%v: clone root after Dedup = %v", based, got)
		}
		h = g.CloneShared(0)
		h.SortEdges()
		if got := g.Out(g.Root()); !slices.Equal(got, want) {
			t.Fatalf("based=%v: original root after the clone's SortEdges = %v, want %v", based, got, want)
		}
	}
}

func TestPrivatizeOutSpareCapacity(t *testing.T) {
	// Appending into spare capacity of a shared list must not be observable
	// through the original: every write copies a list the graph did not
	// allocate itself, and PrivatizeOut does that copy ahead of time.
	g := New()
	a := g.AddNode()
	g.AddEdge(g.Root(), Sym("x"), a)
	// Force spare capacity on the root's slice.
	g.PrivatizeOut(g.Root())

	h := g.CloneShared(0)
	h.PrivatizeOut(g.Root())
	h.AddEdge(g.Root(), Sym("extra"), a)

	if g.OutDegree(g.Root()) != 1 {
		t.Fatalf("original degree = %d, want 1", g.OutDegree(g.Root()))
	}
	if h.OutDegree(h.Root()) != 2 {
		t.Fatalf("clone degree = %d, want 2", h.OutDegree(h.Root()))
	}
}

// TestDeltaNormalize: an add/remove pair of one edge cancels in either
// order, identical records cancel one for one, and Sources passes through
// untouched — its +1/−1 entries for a cancelled pair already sum to zero.
func TestDeltaNormalize(t *testing.T) {
	e := EdgeRec{From: 1, Label: Sym("x"), To: 2}
	f := EdgeRec{From: 1, Label: Sym("y"), To: 3}
	src := []SourceChange{{Label: Sym("x"), N: 1}, {Label: Sym("y"), N: 1}, {Label: Sym("x"), N: -1}}
	d := Delta{Added: []EdgeRec{e, f, e}, Removed: []EdgeRec{e}, Sources: src}.Normalize()
	if !reflect.DeepEqual(d.Added, []EdgeRec{f, e}) || len(d.Removed) != 0 {
		t.Fatalf("normalized edges: added %v, removed %v", d.Added, d.Removed)
	}
	if !reflect.DeepEqual(d.Sources, src) {
		t.Fatalf("Sources = %v, want %v", d.Sources, src)
	}
	pair := []SourceChange{{Label: Sym("x"), N: 1}, {Label: Sym("x"), N: -1}}
	d = Delta{Added: []EdgeRec{e}, Removed: []EdgeRec{e}, Sources: pair}.Normalize()
	if !d.Empty() || !reflect.DeepEqual(d.Sources, pair) {
		t.Fatalf("cancelled pair: %+v", d)
	}
}
