package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ssd"
)

// randLabel draws a label covering every payload kind the codec handles.
func randLabel(rng *rand.Rand) ssd.Label {
	switch rng.Intn(6) {
	case 0:
		return ssd.Sym(fmt.Sprintf("sym%d", rng.Intn(8)))
	case 1:
		return ssd.Str(fmt.Sprintf("str %q %d", "payload", rng.Intn(8)))
	case 2:
		return ssd.Int(rng.Int63n(1<<40) - 1<<39) // exercise multi-byte varints and negatives
	case 3:
		return ssd.Float(rng.NormFloat64() * 1e6)
	case 4:
		return ssd.Bool(rng.Intn(2) == 0)
	default:
		return ssd.OID(fmt.Sprintf("&o%d", rng.Intn(8)))
	}
}

// randGraph builds a random graph and then mutates it through every write
// primitive, so the encoder sees graphs shaped by the real write path
// (including empty edge lists left by DeleteEdge and OIDs on interior nodes).
func randGraph(rng *rand.Rand) *ssd.Graph {
	g := ssd.New()
	n := 2 + rng.Intn(30)
	g.AddNodes(n)
	for i := 0; i < 4*n; i++ {
		from := ssd.NodeID(rng.Intn(g.NumNodes()))
		to := ssd.NodeID(rng.Intn(g.NumNodes()))
		g.AddEdge(from, randLabel(rng), to)
	}
	for i := 0; i < n/2; i++ {
		g.SetOID(ssd.NodeID(rng.Intn(g.NumNodes())), fmt.Sprintf("&oid%d", rng.Intn(64)))
	}
	// Mutate: deletes, relabels, a root move.
	for i := 0; i < n; i++ {
		v := ssd.NodeID(rng.Intn(g.NumNodes()))
		es := g.Out(v)
		if len(es) == 0 {
			continue
		}
		e := es[rng.Intn(len(es))]
		if rng.Intn(2) == 0 {
			g.DeleteEdge(v, e.Label, e.To)
		} else {
			g.Relabel(v, e.Label, randLabel(rng))
		}
	}
	g.SetRoot(ssd.NodeID(rng.Intn(g.NumNodes())))
	return g
}

// TestCodecRoundTripMutated strengthens TestCodecRoundTripProperty for the
// write path: for randomized graphs mutated through every primitive, encode →
// decode → re-encode must be byte-identical, and the decoded graph must match
// the original node for node (edges, oids, root).
func TestCodecRoundTripMutated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		g := randGraph(rng)
		enc := Encode(g)
		h, err := Decode(enc)
		if err != nil {
			t.Fatalf("iter %d: Decode: %v", iter, err)
		}
		if !bytes.Equal(Encode(h), enc) {
			t.Fatalf("iter %d: re-encode not byte-identical", iter)
		}
		if h.Root() != g.Root() || h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
			t.Fatalf("iter %d: shape mismatch: root %d/%d nodes %d/%d edges %d/%d", iter,
				h.Root(), g.Root(), h.NumNodes(), g.NumNodes(), h.NumEdges(), g.NumEdges())
		}
		for v := 0; v < g.NumNodes(); v++ {
			n := ssd.NodeID(v)
			ge, he := g.Out(n), h.Out(n)
			if len(ge) != len(he) {
				t.Fatalf("iter %d: node %d degree %d/%d", iter, v, len(he), len(ge))
			}
			for i := range ge {
				if ge[i] != he[i] {
					t.Fatalf("iter %d: node %d edge %d: %v != %v", iter, v, i, he[i], ge[i])
				}
			}
			gid, gok := g.OIDOf(n)
			hid, hok := h.OIDOf(n)
			if gok != hok || gid != hid {
				t.Fatalf("iter %d: node %d oid %q,%v != %q,%v", iter, v, hid, hok, gid, gok)
			}
		}
	}
}

// TestLabelCodecRoundTrip pins the exported label codec helpers the WAL
// reuses: every kind round-trips through ssd.AppendLabel/ReadLabel.
func TestLabelCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []ssd.Label{
		ssd.Sym(""), ssd.Str(""), ssd.Int(0), ssd.Int(-1), ssd.Float(0),
		ssd.Bool(true), ssd.Bool(false), ssd.OID(""),
	}
	for i := 0; i < 100; i++ {
		labels = append(labels, randLabel(rng))
	}
	var buf []byte
	for _, l := range labels {
		buf = ssd.AppendLabel(buf, l)
	}
	pos := 0
	for i, want := range labels {
		got, next, err := ReadLabel(buf, pos)
		if err != nil {
			t.Fatalf("label %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("label %d: %v != %v", i, got, want)
		}
		pos = next
	}
	if pos != len(buf) {
		t.Fatalf("trailing bytes: pos %d len %d", pos, len(buf))
	}
}
