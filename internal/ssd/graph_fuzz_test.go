package ssd_test

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/ssd"
	"repro/internal/storage"
)

// FuzzGraphOps is a model check of the graph's layout: a base shared by
// every version, under copy-on-write overlays. It draws a sequence of
// writes, clones, folds and codec round trips over several graph versions
// and holds each version to a plain [][]Edge model: after every step, every
// live version's Out(n) equals its model's list, in order, so no version's
// writes reach another. The seeds run as a plain test.
//
//	go test -run=NONE -fuzz=FuzzGraphOps -fuzztime=20s -fuzzminimizetime=10x ./internal/ssd
func FuzzGraphOps(f *testing.F) {
	f.Add(uint16(3), []byte{})
	f.Add(uint16(40), []byte{0, 9, 0, 1, 0, 2, 0, 3, 0, 4, 1, 5, 0, 6, 1, 2, 0, 7, 2, 8})
	f.Add(uint16(300), []byte{0, 5, 0, 1, 0, 1, 2, 0, 1, 1, 0, 0, 0, 3, 1, 0, 1, 0, 0, 0, 0, 6, 1, 6})
	f.Add(uint16(700), []byte{0, 8, 0, 2, 0, 0, 0, 0, 1, 5, 9, 1, 1, 255, 2, 0, 2, 1, 9, 1, 0, 3, 2, 0, 0, 1, 2, 2, 0, 6})
	f.Add(uint16(515), []byte{0, 1, 1, 2, 0, 0, 5, 2, 0, 5, 1, 1, 0, 4, 3, 2, 1, 4, 0, 5, 2, 1, 4, 1, 3, 1, 1, 3, 0, 9, 3, 10, 0, 7})
	f.Fuzz(func(t *testing.T, size uint16, ops []byte) {
		labels := []ssd.Label{ssd.Sym("a"), ssd.Sym("b"), ssd.Int(1), ssd.Float(1), ssd.Str("x")}
		n0 := int(size)%(3*256) + 1
		rng := rand.New(rand.NewPCG(uint64(size), 0))
		g := ssd.New()
		g.AddNodes(n0 - 1)
		for range n0 {
			g.AddEdge(ssd.NodeID(rng.IntN(n0)), labels[rng.IntN(len(labels))], ssd.NodeID(rng.IntN(n0)))
		}
		type version struct {
			g *ssd.Graph
			m [][]ssd.Edge
		}
		vs := []*version{{g: g, m: modelOf(g)}}
		r := opReader{b: ops}
		for step := 0; step < 64 && len(r.b) > 0; step++ {
			v := vs[int(r.byte())%len(vs)]
			op := r.byte() % 12
			node := func() ssd.NodeID { return ssd.NodeID(int(r.uint16()) % len(v.m)) }
			label := func() ssd.Label { return labels[int(r.byte())%len(labels)] }
			// edge draws an edge of n's list, or any edge if it has none.
			edge := func(n ssd.NodeID) ssd.Edge {
				if k := int(r.byte()); len(v.m[n]) > 0 && k < 200 {
					return v.m[n][k%len(v.m[n])]
				}
				return ssd.Edge{Label: label(), To: node()}
			}
			switch op {
			case 0:
				v.g.AddNode()
				v.m = append(v.m, nil)
			case 1, 2:
				from, l, to := node(), label(), node()
				v.g.AddEdge(from, l, to)
				v.m[from] = append(v.m[from], ssd.Edge{Label: l, To: to})
			case 3:
				from := node()
				e := edge(from)
				i := slices.Index(v.m[from], e)
				if got := v.g.DeleteEdge(from, e.Label, e.To); got != (i >= 0) {
					t.Fatalf("step %d: DeleteEdge(%d, %v, %d) = %v, model has it at %d", step, from, e.Label, e.To, got, i)
				}
				if i >= 0 {
					v.m[from] = slices.Delete(v.m[from], i, i+1)
				}
			case 4:
				from := node()
				old, nl := edge(from).Label, label()
				want := 0
				for i, e := range v.m[from] {
					if e.Label == old {
						v.m[from][i].Label = nl
						want++
					}
				}
				if got := v.g.Relabel(from, old, nl); got != want {
					t.Fatalf("step %d: Relabel(%d, %v, %v) = %d, want %d", step, from, old, nl, got, want)
				}
			case 5:
				v.g.PrivatizeOut(node())
			case 6, 7:
				vs = append(vs, &version{g: v.g.CloneShared(int(r.byte())), m: cloneModel(v.m)})
			case 8:
				v.g.Dedup()
				for n := range v.m {
					slices.SortFunc(v.m[n], cmpEdge)
					v.m[n] = slices.Compact(v.m[n])
				}
			case 9:
				v.g.SortEdges()
				for n := range v.m {
					slices.SortFunc(v.m[n], cmpEdge)
				}
			case 10: // a fold: Clone builds a new base from base + overlay
				vs = append(vs, &version{g: v.g.Clone(), m: cloneModel(v.m)})
			case 11:
				h, err := storage.Decode(storage.Encode(v.g))
				if err != nil {
					t.Fatalf("step %d: decode: %v", step, err)
				}
				vs = append(vs, &version{g: h, m: cloneModel(v.m)})
			}
			if len(vs) > 6 {
				vs = vs[1:]
			}
			for i, v := range vs {
				if v.g.NumNodes() != len(v.m) {
					t.Fatalf("step %d (op %d): version %d has %d nodes, model %d", step, op, i, v.g.NumNodes(), len(v.m))
				}
				for n, want := range v.m {
					if got := v.g.Out(ssd.NodeID(n)); !slices.Equal(got, want) {
						t.Fatalf("step %d (op %d): version %d Out(%d) = %v, model %v", step, op, i, n, got, want)
					}
				}
			}
		}
	})
}

// modelOf copies g's lists into a plain model.
func modelOf(g *ssd.Graph) [][]ssd.Edge {
	m := make([][]ssd.Edge, g.NumNodes())
	for n := range m {
		m[n] = slices.Clone(g.Out(ssd.NodeID(n)))
	}
	return m
}

func cloneModel(m [][]ssd.Edge) [][]ssd.Edge {
	c := make([][]ssd.Edge, len(m))
	for n, es := range m {
		c[n] = slices.Clone(es)
	}
	return c
}

// cmpEdge is SortEdges' order: by label (Label.Less), then by target.
func cmpEdge(a, b ssd.Edge) int {
	switch {
	case a.Label == b.Label:
		return int(a.To) - int(b.To)
	case a.Label.Less(b.Label):
		return -1
	}
	return 1
}

// opReader hands out the fuzz input's bytes, then zeros once it runs dry.
type opReader struct{ b []byte }

func (r *opReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *opReader) uint16() uint16 {
	var p [2]byte
	p[0], p[1] = r.byte(), r.byte()
	return binary.LittleEndian.Uint16(p[:])
}
