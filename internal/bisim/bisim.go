// Package bisim implements bisimulation and simulation on edge-labeled
// graphs. Bisimulation is the value equality of the paper's §2: two rooted
// graphs denote the same semistructured value iff their roots are bisimilar
// (object identities are ignored — this is the UnQL semantics, in contrast
// to OEM's oid equality). Simulation is the conformance relation §5 uses to
// relate data to graph schemas [8].
package bisim

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/ssd"
)

// Classes computes the bisimulation equivalence classes of all nodes of g.
// It uses signature refinement with a dirty-set worklist: after each round
// only the predecessors of nodes that changed class are re-signed, so
// refinement cost localizes on graphs where most of the structure is stable.
// The result maps every NodeID to a class number in [0, k); equal numbers
// mean bisimilar nodes.
func Classes(g *ssd.Graph) []int {
	return refine(g, true)
}

// ClassesNaive is the textbook refinement that re-signs every node every
// round — O(rounds × m) with rounds up to n. It is the baseline for
// experiment E11; results are identical to Classes.
func ClassesNaive(g *ssd.Graph) []int {
	return refine(g, false)
}

type sigPair struct {
	label ssd.Label
	class int
}

// canonical maps numerically equal int/float labels to one representative so
// bisimulation agrees with Label.Equal's numeric overloading.
func canonical(l ssd.Label) ssd.Label {
	if f, ok := l.FloatVal(); ok {
		if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			i := int64(f)
			if float64(i) == f {
				return ssd.Int(i)
			}
		}
	}
	return l
}

// signature serializes the successor (label, class) set of v under the
// current partition into buf. Reuses buf and pairs to avoid allocation.
func signature(g *ssd.Graph, v ssd.NodeID, cls []int, buf []byte, pairs []sigPair) ([]byte, []sigPair) {
	pairs = pairs[:0]
	for _, e := range g.Out(v) {
		pairs = append(pairs, sigPair{canonical(e.Label), cls[e.To]})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if c := pairs[i].label.Compare(pairs[j].label); c != 0 {
			return c < 0
		}
		return pairs[i].class < pairs[j].class
	})
	buf = buf[:0]
	prev := sigPair{class: -1}
	for _, p := range pairs {
		if p == prev {
			continue // set semantics: duplicate edges are one edge
		}
		prev = p
		buf = ssd.AppendLabel(buf, p.label)
		buf = binary.AppendUvarint(buf, uint64(p.class))
	}
	return buf, pairs
}

func refine(g *ssd.Graph, incremental bool) []int {
	n := g.NumNodes()
	cls := make([]int, n)
	if n == 0 {
		return cls
	}
	var rev [][]ssd.Edge
	if incremental {
		rev = g.Reverse()
	}

	dirty := make([]int, 0, n)
	inDirty := make([]bool, n)
	for v := 0; v < n; v++ {
		dirty = append(dirty, v)
		inDirty[v] = true
	}
	nextClass := 1
	var buf []byte
	var pairs []sigPair

	for len(dirty) > 0 {
		// Group this round's dirty nodes by their current class, and find a
		// clean representative plus total membership for each touched class.
		byClass := make(map[int][]int)
		for _, v := range dirty {
			byClass[cls[v]] = append(byClass[cls[v]], v)
		}
		cleanRep := make(map[int]int)
		classSize := make(map[int]int, len(byClass))
		for v := 0; v < n; v++ {
			c := cls[v]
			if _, touched := byClass[c]; !touched {
				continue
			}
			classSize[c]++
			if !inDirty[v] {
				if _, have := cleanRep[c]; !have {
					cleanRep[c] = v
				}
			}
		}
		for _, v := range dirty {
			inDirty[v] = false
		}

		var changed []int
		for c, members := range byClass {
			// Partition the dirty members of class c by signature. The
			// bucket matching the class's established signature keeps c;
			// every other bucket becomes a fresh class. Invariant: all clean
			// members of a class share one signature, so any clean node
			// serves as the reference.
			table := make(map[string][]int, len(members))
			for _, v := range members {
				buf, pairs = signature(g, ssd.NodeID(v), cls, buf, pairs)
				table[string(buf)] = append(table[string(buf)], v)
			}
			var keepKey string
			if rep, ok := cleanRep[c]; ok && classSize[c] > len(members) {
				buf, pairs = signature(g, ssd.NodeID(rep), cls, buf, pairs)
				keepKey = string(buf)
			} else {
				// Whole class dirty: the largest bucket keeps the number
				// (any choice is sound; largest minimizes churn). Tie-break
				// by key for determinism.
				best := -1
				keys := sortedKeys(table)
				for _, k := range keys {
					if len(table[k]) > best {
						best, keepKey = len(table[k]), k
					}
				}
			}
			for _, k := range sortedKeys(table) {
				if k == keepKey {
					continue
				}
				id := nextClass
				nextClass++
				for _, v := range table[k] {
					cls[v] = id
					changed = append(changed, v)
				}
			}
		}

		// Nodes whose successors changed class must be re-signed next round.
		dirty = dirty[:0]
		if incremental {
			for _, v := range changed {
				for _, e := range rev[v] {
					p := int(e.To)
					if !inDirty[p] {
						inDirty[p] = true
						dirty = append(dirty, p)
					}
				}
			}
		} else if len(changed) > 0 {
			for v := 0; v < n; v++ {
				dirty = append(dirty, v)
				inDirty[v] = true
			}
		}
	}
	return normalize(cls)
}

func sortedKeys(m map[string][]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// normalize renumbers classes to 0..k-1 in order of first appearance, so
// outputs are comparable across algorithms.
func normalize(cls []int) []int {
	seen := make(map[int]int)
	for i, c := range cls {
		id, ok := seen[c]
		if !ok {
			id = len(seen)
			seen[c] = id
		}
		cls[i] = id
	}
	return cls
}

// NumClasses returns the number of distinct classes in a normalized result.
func NumClasses(cls []int) int {
	max := -1
	for _, c := range cls {
		if c > max {
			max = c
		}
	}
	return max + 1
}

// Bisimilar reports whether the values rooted at (g1, n1) and (g2, n2) are
// equal in the UnQL sense. The graphs may be the same Graph.
func Bisimilar(g1 *ssd.Graph, n1 ssd.NodeID, g2 *ssd.Graph, n2 ssd.NodeID) bool {
	if g1 == g2 {
		cls := Classes(g1)
		return cls[n1] == cls[n2]
	}
	comb, off := combine(g1, g2)
	cls := Classes(comb)
	return cls[n1] == cls[off+n2]
}

// Equal reports whether two rooted graphs denote the same value.
func Equal(g1, g2 *ssd.Graph) bool {
	return Bisimilar(g1, g1.Root(), g2, g2.Root())
}

// combine copies g2 into a clone of g1, returning the combined graph and the
// NodeID offset applied to g2's nodes.
func combine(g1, g2 *ssd.Graph) (*ssd.Graph, ssd.NodeID) {
	comb := g1.Clone()
	off := ssd.NodeID(comb.NumNodes())
	comb.AddNodes(g2.NumNodes())
	for v := 0; v < g2.NumNodes(); v++ {
		for _, e := range g2.Out(ssd.NodeID(v)) {
			comb.AddEdge(off+ssd.NodeID(v), e.Label, off+e.To)
		}
	}
	return comb, off
}

// Minimize returns the bisimulation quotient of the part of g accessible
// from the root: the smallest graph (up to isomorphism) with the same value.
// Duplicate edges are removed.
func Minimize(g *ssd.Graph) *ssd.Graph {
	acc, _ := g.Accessible()
	cls := Classes(acc)
	k := NumClasses(cls)
	out := ssd.NewWithCapacity(k)
	rootCls := cls[acc.Root()]
	nodeOf := make([]ssd.NodeID, k)
	nodeOf[rootCls] = out.Root()
	for c := 0; c < k; c++ {
		if c != rootCls {
			nodeOf[c] = out.AddNode()
		}
	}
	for v := 0; v < acc.NumNodes(); v++ {
		for _, e := range acc.Out(ssd.NodeID(v)) {
			out.AddEdge(nodeOf[cls[v]], canonical(e.Label), nodeOf[cls[e.To]])
		}
	}
	out.Dedup()
	return out
}

// Canonicalize returns the canonical representative of g's value: the
// bisimulation quotient of the accessible part (Minimize), renumbered so
// that node IDs — and therefore Format output and edge order — depend only
// on the value, never on construction order. Two graphs are value-equal iff
// their canonicalizations are byte-identical under ssd.FormatRoot.
//
// The renumbering is iterated signature refinement with class ids assigned
// in signature sort order: on a minimized graph every pair of nodes is
// non-bisimilar, so refinement terminates with one structurally determined
// rank per node.
func Canonicalize(g *ssd.Graph) *ssd.Graph {
	m := Minimize(g)
	n := m.NumNodes()
	cls := make([]int, n)
	k := 1
	var buf []byte
	var pairs []sigPair
	for {
		sigs := make([]string, n)
		var own []byte
		for v := 0; v < n; v++ {
			own = own[:0]
			own = binary.AppendUvarint(own, uint64(cls[v]))
			if ssd.NodeID(v) == m.Root() {
				own = append(own, 1)
			} else {
				own = append(own, 0)
			}
			buf, pairs = signature(m, ssd.NodeID(v), cls, buf, pairs)
			sigs[v] = string(own) + string(buf)
		}
		uniq := append([]string(nil), sigs...)
		sort.Strings(uniq)
		w := 0
		for i, s := range uniq {
			if i == 0 || s != uniq[w-1] {
				uniq[w] = s
				w++
			}
		}
		uniq = uniq[:w]
		id := make(map[string]int, len(uniq))
		for i, s := range uniq {
			id[s] = i
		}
		for v := range cls {
			cls[v] = id[sigs[v]]
		}
		if len(uniq) == k {
			break
		}
		k = len(uniq)
	}
	out := ssd.New()
	if n == 0 {
		return out
	}
	if n > 1 {
		out.AddNodes(n - 1)
	}
	for v := 0; v < n; v++ {
		for _, e := range m.Out(ssd.NodeID(v)) {
			out.AddEdge(ssd.NodeID(cls[v]), e.Label, ssd.NodeID(cls[e.To]))
		}
	}
	out.SetRoot(ssd.NodeID(cls[m.Root()]))
	out.SortEdges()
	return out
}
