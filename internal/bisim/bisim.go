// Package bisim implements bisimulation and simulation on edge-labeled
// graphs. Bisimulation is the value equality of the paper's §2: two rooted
// graphs denote the same semistructured value iff their roots are bisimilar
// (object identities are ignored — this is the UnQL semantics, in contrast
// to OEM's oid equality). Simulation is the conformance relation §5 uses to
// relate data to graph schemas [8].
package bisim

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/ssd"
)

// Classes computes the bisimulation equivalence classes of all nodes of g.
// It uses signature refinement with a dirty-set worklist: after each round
// only the predecessors of nodes that changed class are re-signed, so
// refinement cost localizes on graphs where most of the structure is stable.
// The result maps every NodeID to a class number in [0, k); equal numbers
// mean bisimilar nodes.
func Classes(g *ssd.Graph) []int {
	return refine(g, true, &signer{g: g})
}

// ClassesNaive is the textbook refinement that re-signs every node every
// round — O(rounds × m) with rounds up to n. It is the baseline for
// experiment E11; results are identical to Classes.
func ClassesNaive(g *ssd.Graph) []int {
	return refine(g, false, &signer{g: g})
}

type sigPair struct {
	label ssd.Label
	class int
}

// canonical maps numerically equal int/float labels to one representative so
// bisimulation agrees with Label.Equal's numeric overloading.
func canonical(l ssd.Label) ssd.Label {
	if f, ok := l.FloatVal(); ok {
		if f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
			return ssd.Int(int64(f))
		}
	}
	return l
}

// successors returns v's successor (label, class) set, sorted by label and
// class, duplicates removed. A successor t's class is cls[t], or cls[of[t]]
// when of is non-nil. It reuses pairs.
func successors(g *ssd.Graph, v ssd.NodeID, cls, of []int, pairs []sigPair) []sigPair {
	pairs = pairs[:0]
	for _, e := range g.Out(v) {
		t := int(e.To)
		if of != nil {
			t = of[t]
		}
		pairs = append(pairs, sigPair{canonical(e.Label), cls[t]})
	}
	slices.SortFunc(pairs, func(a, b sigPair) int {
		if c := a.label.Compare(b.label); c != 0 {
			return c
		}
		return cmp.Compare(a.class, b.class)
	})
	return slices.Compact(pairs) // set semantics: duplicate edges are one edge
}

// signer is the one way this package turns nodes into classes: it signs
// nodes into a reused byte arena, sorts them by those bytes, and reads
// classes off the runs of equal bytes.
type signer struct {
	g     *ssd.Graph
	arena []byte
	pairs []sigPair
	nodes []signed
}

// signed locates one node's entry in the arena: the caller's prefix at
// [lo, sig), the node's signature at [sig, hi).
type signed struct {
	v           ssd.NodeID
	lo, sig, hi int
}

func (s *signer) reset() {
	s.arena = s.arena[:0]
	s.nodes = s.nodes[:0]
}

// sign appends v's entry: the prefix uvarint(key) and flag, then the
// successor (label, class) set under cls and of (see successors).
func (s *signer) sign(v ssd.NodeID, key int, flag byte, cls, of []int) {
	lo := len(s.arena)
	s.arena = binary.AppendUvarint(s.arena, uint64(key))
	s.arena = append(s.arena, flag)
	sig := len(s.arena)
	s.pairs = successors(s.g, v, cls, of, s.pairs)
	for _, p := range s.pairs {
		s.arena = ssd.AppendLabel(s.arena, p.label)
		s.arena = binary.AppendUvarint(s.arena, uint64(p.class))
	}
	s.nodes = append(s.nodes, signed{v, lo, sig, len(s.arena)})
}

// sort orders the signed nodes by their entry bytes.
func (s *signer) sort() {
	slices.SortFunc(s.nodes, func(a, b signed) int {
		return bytes.Compare(s.arena[a.lo:a.hi], s.arena[b.lo:b.hi])
	})
}

// run returns the end of the run of equal entries that starts at i.
func (s *signer) run(i int) int {
	e := s.arena[s.nodes[i].lo:s.nodes[i].hi]
	j := i + 1
	for j < len(s.nodes) && bytes.Equal(e, s.arena[s.nodes[j].lo:s.nodes[j].hi]) {
		j++
	}
	return j
}

// signature returns the signature bytes of entry i.
func (s *signer) signature(i int) []byte { return s.arena[s.nodes[i].sig:s.nodes[i].hi] }

// refine computes g's classes with s. It sizes s's arena for a round that
// signs every node, so s can sign g's nodes again afterwards without
// growing.
func refine(g *ssd.Graph, incremental bool, s *signer) []int {
	n := g.NumNodes()
	cls := make([]int, n)
	if n == 0 {
		return cls
	}
	off, preds, bound := scan(g, incremental)
	s.arena = make([]byte, 0, bound)
	s.nodes = make([]signed, 0, n)
	// Per class: its member count, and the signature its clean members
	// carry. Invariant: all clean members of a class share one signature.
	size := []int{n}
	sig := [][]byte{nil}
	dirty := make([]int, n)
	inDirty := make([]bool, n)
	for v := range dirty {
		dirty[v] = v
		inDirty[v] = true
	}
	changed := make([]int, 0, n)
	for len(dirty) > 0 {
		// Sign the dirty nodes prefixed by their class, so each class's
		// dirty members form one group of runs of equal signatures.
		s.reset()
		for _, v := range dirty {
			s.sign(ssd.NodeID(v), cls[v], 0, cls, nil)
			inDirty[v] = false
		}
		s.sort()
		changed = changed[:0]
		for i := 0; i < len(s.nodes); {
			c := cls[s.nodes[i].v]
			end := i + 1
			for end < len(s.nodes) && cls[s.nodes[end].v] == c {
				end++
			}
			// The run carrying the clean members' signature keeps c. With
			// no clean member, the largest run keeps it (any choice is
			// sound; largest minimizes churn; the first in byte order on a
			// tie). Every other run becomes a fresh class.
			keep, best, clean := -1, 0, size[c] > end-i
			for a := i; a < end; {
				b := s.run(a)
				if clean && bytes.Equal(s.signature(a), sig[c]) || !clean && b-a > best {
					keep, best = a, b-a
				}
				a = b
			}
			if !clean {
				sig[c] = append(sig[c][:0], s.signature(keep)...)
			}
			for a := i; a < end; {
				b := s.run(a)
				if a != keep {
					id := len(size)
					size[c] -= b - a
					size = append(size, b-a)
					sig = append(sig, append([]byte(nil), s.signature(a)...))
					for _, e := range s.nodes[a:b] {
						cls[e.v] = id
						changed = append(changed, int(e.v))
					}
				}
				a = b
			}
			i = end
		}
		if !incremental {
			// Naive: re-sign every node until a round changes nothing.
			if len(changed) == 0 {
				break
			}
			continue
		}
		// Nodes whose successors changed class must be re-signed next round.
		dirty = dirty[:0]
		for _, v := range changed {
			for _, p := range preds[off[v]:off[v+1]] {
				if !inDirty[p] {
					inDirty[p] = true
					dirty = append(dirty, int(p))
				}
			}
		}
	}
	return normalize(cls, len(size))
}

// scan makes one pass over g's edges to bound the bytes a round that signs
// every node appends to a signer's arena: per node a key and a flag, per
// edge a label and a class, where keys and classes are below n and
// canonical may turn a 9-byte float into an int of up to 11 bytes. With
// csr set, a second pass lists every node's predecessor ids: v's are
// preds[off[v]:off[v+1]], in edge order.
func scan(g *ssd.Graph, csr bool) (off []int32, preds []ssd.NodeID, bound int) {
	n := g.NumNodes()
	if csr {
		off = make([]int32, n+1)
	}
	w := len(binary.AppendUvarint(nil, uint64(n)))
	bound = n * (w + 1)
	var enc []byte
	for v := range n {
		for _, e := range g.Out(ssd.NodeID(v)) {
			enc = ssd.AppendLabel(enc[:0], e.Label)
			bound += len(enc) + 2 + w
			if csr {
				off[e.To+1]++
			}
		}
	}
	if !csr {
		return nil, nil, bound
	}
	for v := range n {
		off[v+1] += off[v]
	}
	preds = make([]ssd.NodeID, off[n])
	next := slices.Clone(off[:n])
	for v := range n {
		for _, e := range g.Out(ssd.NodeID(v)) {
			preds[next[e.To]] = ssd.NodeID(v)
			next[e.To]++
		}
	}
	return off, preds, bound
}

// normalize renumbers classes in [0, k) to 0..k'-1 in order of first
// appearance, so outputs are comparable across algorithms.
func normalize(cls []int, k int) []int {
	id := make([]int, k)
	next := 0
	for i, c := range cls {
		if id[c] == 0 {
			next++
			id[c] = next
		}
		cls[i] = id[c] - 1
	}
	return cls
}

// NumClasses returns the number of distinct classes in a normalized result.
func NumClasses(cls []int) int {
	if len(cls) == 0 {
		return 0
	}
	return slices.Max(cls) + 1
}

// Bisimilar reports whether the values rooted at (g1, n1) and (g2, n2) are
// equal in the UnQL sense. The graphs may be the same Graph.
func Bisimilar(g1 *ssd.Graph, n1 ssd.NodeID, g2 *ssd.Graph, n2 ssd.NodeID) bool {
	if g1 == g2 {
		cls := Classes(g1)
		return cls[n1] == cls[n2]
	}
	comb := g1.Clone()
	m2 := comb.Graft(g2, n2)
	cls := Classes(comb)
	return cls[n1] == cls[m2]
}

// Equal reports whether two rooted graphs denote the same value.
func Equal(g1, g2 *ssd.Graph) bool {
	return Bisimilar(g1, g1.Root(), g2, g2.Root())
}

// Canonicalize returns the canonical representative of g's value: the
// bisimulation quotient of the part accessible from the root, numbered so
// that node IDs — and therefore Format output and edge order — depend only
// on the value, never on construction order. Two graphs are value-equal iff
// their canonicalizations are byte-identical under ssd.FormatRoot.
// Duplicate edges are removed.
//
// One accessible member of each class stands for its quotient node. The
// numbering is iterated signature refinement over those representatives,
// each prefixed by its current rank and a root-class flag, with ranks
// assigned in byte order of the entries: quotient nodes are pairwise
// non-bisimilar, so refinement ends with one structurally determined rank
// per node.
func Canonicalize(g *ssd.Graph) *ssd.Graph {
	if g.NumNodes() == 0 {
		return ssd.New()
	}
	// refine sizes s for signing every node, so the representatives'
	// rounds below reuse its arena without growing it.
	s := signer{g: g}
	of := refine(g, true, &s)
	seen := make([]bool, NumClasses(of))
	var reps []ssd.NodeID
	for v, ok := range ssd.ReachableFrom(g, g.Root()) {
		if c := of[v]; ok && !seen[c] {
			seen[c] = true
			reps = append(reps, ssd.NodeID(v))
		}
	}
	rootCls := of[g.Root()]
	rank := make([]int, len(seen)) // by class
	for k := 1; ; {
		s.reset()
		for _, r := range reps {
			var flag byte
			if of[r] == rootCls {
				flag = 1
			}
			s.sign(r, rank[of[r]], flag, rank, of)
		}
		s.sort()
		next := 0
		for i := 0; i < len(s.nodes); next++ {
			j := s.run(i)
			for _, e := range s.nodes[i:j] {
				rank[of[e.v]] = next
			}
			i = j
		}
		if next == k {
			break
		}
		k = next
	}
	out := ssd.NewWithCapacity(len(reps))
	out.AddNodes(len(reps) - 1)
	for _, r := range reps {
		s.pairs = successors(g, r, rank, of, s.pairs)
		for _, p := range s.pairs {
			out.AddEdge(ssd.NodeID(rank[of[r]]), p.label, ssd.NodeID(p.class))
		}
	}
	out.SetRoot(ssd.NodeID(rank[rootCls]))
	return out
}
