package bisim

import (
	"testing"

	"repro/internal/ssd"
)

// fuzzLabels include ints a float would round together (2⁵³ and 2⁵³+1) and
// an int and a float that are one value (1 and 1.0).
var fuzzLabels = []ssd.Label{
	ssd.Sym("a"), ssd.Sym("b"), ssd.Int(1), ssd.Float(1), ssd.Int(1 << 53), ssd.Int(1<<53 + 1),
	ssd.Float(1 << 53), ssd.Float(2.5), ssd.Str("s"), ssd.Bool(true),
}

// byteStream hands out the fuzzer's bytes one at a time, then zeros.
type byteStream []byte

func (s *byteStream) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

type fuzzEdge struct {
	from  ssd.NodeID
	label ssd.Label
	to    ssd.NodeID
}

// drawFuzzGraph draws a graph of at most 16 nodes and an isomorphic variant
// of it: nodes renumbered, edges shuffled and some duplicated, and up to
// three extra nodes no edge of the original reaches, with edges into it.
func drawFuzzGraph(data []byte) (g, variant *ssd.Graph) {
	s := byteStream(data)
	n := 1 + s.next(16)
	var edges []fuzzEdge
	for i := s.next(48); i > 0; i-- {
		edges = append(edges, fuzzEdge{ssd.NodeID(s.next(n)), fuzzLabels[s.next(len(fuzzLabels))], ssd.NodeID(s.next(n))})
	}
	g = ssd.New()
	g.AddNodes(n - 1)
	g.SetRoot(ssd.NodeID(s.next(n)))
	for _, e := range edges {
		g.AddEdge(e.from, e.label, e.to)
	}

	extra := s.next(4)
	perm := make([]ssd.NodeID, n+extra)
	for i := range perm {
		j := s.next(i + 1)
		perm[i] = perm[j]
		perm[j] = ssd.NodeID(i)
	}
	for i := len(edges) - 1; i > 0; i-- {
		j := s.next(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	for i := s.next(4); i > 0 && len(edges) > 0; i-- {
		edges = append(edges, edges[s.next(len(edges))])
	}
	for v := n; v < n+extra; v++ {
		edges = append(edges, fuzzEdge{ssd.NodeID(v), fuzzLabels[s.next(len(fuzzLabels))], ssd.NodeID(s.next(v + 1))})
	}
	variant = ssd.New()
	variant.AddNodes(n + extra - 1)
	variant.SetRoot(perm[g.Root()])
	for _, e := range edges {
		variant.AddEdge(perm[e.from], e.label, perm[e.to])
	}
	return g, variant
}

// FuzzCanonicalize holds Canonicalize to its contract on drawn graphs: an
// isomorphic variant canonicalizes to the same bytes, canonicalizing twice
// changes nothing, the result has g's value, and it has one node per
// bisimulation class of g's accessible nodes (counted by ClassesNaive).
//
//	go test -run=NONE -fuzz=FuzzCanonicalize -fuzztime=20s ./internal/bisim
func FuzzCanonicalize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0}) // a root self-loop
	// A root twin ({a: #t, "s": #c} at nodes 0 and 1, #c{"s": #c}) with
	// nodes 0 and 1 swapped in the variant.
	f.Add([]byte{2, 5, 0, 0, 1, 0, 8, 2, 1, 0, 1, 1, 8, 2, 2, 8, 2, 0, 0, 0, 0, 2})
	// {a: {2⁵³+1, 2⁵³}}, the two int edges in the other order in the variant.
	f.Add([]byte{2, 3, 0, 0, 1, 1, 5, 2, 1, 4, 2, 0, 0, 0, 0, 1, 0, 0})
	// {b: {1, 1.0}, a: {1.0}} and one unreachable node.
	f.Add([]byte{3, 5, 0, 1, 1, 1, 2, 3, 1, 3, 3, 0, 0, 2, 2, 3, 3, 0, 1, 0, 1, 0, 3})
	f.Add([]byte{5, 6, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 1, 0, 0, 3, 2, 1, 7, 3, 9, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, variant := drawFuzzGraph(data)
		c := Canonicalize(g)
		text, dump := ssd.FormatRoot(c), dumpEdges(c)
		cv := Canonicalize(variant)
		if got := ssd.FormatRoot(cv); got != text || dumpEdges(cv) != dump {
			t.Fatalf("isomorphic variant canonicalizes differently:\n g:       %s\n variant: %s", text, got)
		}
		if cc := Canonicalize(c); ssd.FormatRoot(cc) != text || dumpEdges(cc) != dump {
			t.Fatalf("not idempotent:\n once:  %s\n twice: %s", text, ssd.FormatRoot(cc))
		}
		if !Equal(c, g) {
			t.Fatalf("Canonicalize changed the value: %s", text)
		}
		cls := ClassesNaive(g)
		seen := map[int]bool{}
		for v, ok := range ssd.ReachableFrom(g, g.Root()) {
			if ok {
				seen[cls[v]] = true
			}
		}
		if c.NumNodes() != len(seen) {
			t.Fatalf("%d canonical nodes, %d accessible classes: %s", c.NumNodes(), len(seen), text)
		}
	})
}
