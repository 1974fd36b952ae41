package bisim

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ssd"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/canonical.golden from the current output")

// goldenLabels are the labels drawn graphs carry: two symbols, an int and a
// float that canonical merges, another float, a string and a bool.
var goldenLabels = []ssd.Label{ssd.Sym("a"), ssd.Sym("b"), ssd.Int(1), ssd.Float(1), ssd.Float(2.5), ssd.Str("s"), ssd.Bool(true)}

// drawGoldenGraph draws a small graph: a spanning tree from the root over
// the reachable nodes plus extra edges (self-loops, cycles, duplicates),
// unreachable nodes with edges into the reachable part, and sometimes a node
// whose out-edges copy the root's, so a non-root node is bisimilar to the
// root. Node ids are a random permutation of the drawing order.
func drawGoldenGraph(rng *rand.Rand) *ssd.Graph {
	reach := 1 + rng.Intn(9)
	unreach := rng.Intn(4)
	n := reach + unreach
	perm := rng.Perm(n)
	g := ssd.New()
	g.AddNodes(n - 1)
	g.SetRoot(ssd.NodeID(perm[0]))
	label := func() ssd.Label { return goldenLabels[rng.Intn(len(goldenLabels))] }
	edge := func(from, to int) { g.AddEdge(ssd.NodeID(perm[from]), label(), ssd.NodeID(perm[to])) }
	for v := 1; v < reach; v++ {
		edge(rng.Intn(v), v)
	}
	for i := rng.Intn(2 * reach); i > 0; i-- {
		edge(rng.Intn(reach), rng.Intn(reach))
	}
	for v := reach; v < n; v++ {
		edge(v, rng.Intn(reach))
		if rng.Intn(2) == 0 {
			edge(v, reach+rng.Intn(unreach))
		}
	}
	if reach > 1 && rng.Intn(3) == 0 {
		// A root twin: a reachable node with the root's out-edges.
		twin := ssd.NodeID(perm[1+rng.Intn(reach-1)])
		for _, e := range g.Out(g.Root()) {
			g.AddEdge(twin, e.Label, e.To)
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		v := ssd.NodeID(rng.Intn(n))
		if es := g.Out(v); len(es) > 0 {
			e := es[rng.Intn(len(es))]
			g.AddEdge(v, e.Label, e.To)
		}
	}
	return g
}

// dumpEdges lists g's root and every node's out-edges in storage order, so a
// golden pins node numbering and edge order, not only the text.
func dumpEdges(g *ssd.Graph) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "root %d", g.Root())
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprintf(&b, " |%d", v)
		for _, e := range g.Out(ssd.NodeID(v)) {
			fmt.Fprintf(&b, " %s>%d", e.Label, e.To)
		}
	}
	return b.String()
}

// TestCanonicalGolden pins the canonical byte format: for 500 drawn graphs,
// the text and the node and edge order of Canonicalize, and the Classes
// partition. A change to the bisimulation kernel that must not alter any
// output runs this unchanged; a deliberate change regenerates the file with
// -update.
func TestCanonicalGolden(t *testing.T) {
	var out bytes.Buffer
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		g := drawGoldenGraph(rng)
		c := Canonicalize(g)
		fmt.Fprintf(&out, "== %d\n%s\n%s\nclasses %v\n", i, ssd.FormatRoot(c), dumpEdges(c), Classes(g))
	}
	path := filepath.Join("testdata", "canonical.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s\n(regenerate with -update only for a deliberate change)", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s in length: %d vs %d lines", path, len(gl), len(wl))
	}
}
