package ssd

import (
	"reflect"
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

// TestCloneSharedChunks: the node table is shared chunk by chunk, so a
// clone of a many-chunk graph copies only the spine, and writes on either
// side after the clone — new nodes in a shared tail chunk, new edges on
// privatized lists, a Dedup — stay on that side.
func TestCloneSharedChunks(t *testing.T) {
	const n = 3*spineLen + 7
	g := NewWithCapacity(n)
	g.AddNodes(n - 1)
	for i := 1; i < n; i++ {
		g.AddEdge(NodeID(i-1), Int(int64(i)), NodeID(i))
	}
	before := FormatRoot(g)

	var h *Graph
	if allocs := testing.AllocsPerRun(10, func() { h = g.CloneShared(spineLen) }); allocs > 3 {
		t.Fatalf("CloneShared made %.0f allocations, want the spine and the graph", allocs)
	}
	hn := h.AddNode()
	h.PrivatizeOut(0)
	h.PrivatizeOut(NodeID(2 * spineLen))
	h.AddEdge(0, Sym("h"), hn)
	h.AddEdge(NodeID(2*spineLen), Sym("h"), hn)
	gn := g.AddNode() // the same id, in the tail chunk both share
	g.PrivatizeOut(0)
	g.AddEdge(0, Sym("g"), gn)
	if gn != hn {
		t.Fatalf("new nodes %d and %d, want equal ids", gn, hn)
	}
	g.Dedup()

	if g.OutDegree(0) != 2 || g.OutDegree(NodeID(2*spineLen)) != 1 || g.LookupFirst(0, Sym("h")) != InvalidNode {
		t.Fatalf("original sees the clone's writes: %v, %v", g.Out(0), g.Out(NodeID(2*spineLen)))
	}
	if h.OutDegree(0) != 2 || h.OutDegree(NodeID(2*spineLen)) != 2 || h.LookupFirst(0, Sym("g")) != InvalidNode {
		t.Fatalf("clone sees the original's writes: %v, %v", h.Out(0), h.Out(NodeID(2*spineLen)))
	}
	h.DeleteEdge(0, Sym("h"), hn)
	h.DeleteEdge(NodeID(2*spineLen), Sym("h"), hn)
	if got := FormatRoot(h); got != before {
		t.Fatalf("clone with its writes undone differs from the original before them")
	}
}

func TestPrivatizeOutSpareCapacity(t *testing.T) {
	// The sharp edge CloneShared documents: appending into spare capacity of
	// a shared slice must not be observable through the original. Privatizing
	// makes the append safe; this test would fail under -race (and often by
	// value) if PrivatizeOut were skipped and the original kept growing.
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
