// Package stats maintains the cardinality statistics the cost-based query
// planner feeds on: per-label edge counts, distinct source counts, and a
// fixed-bucket log-scale histogram over numeric data values. The
// statistics are built in one pass over a graph (Build) and then kept
// consistent with the derived-structure maintenance discipline of
// index.LabelIndex.Apply / dataguide.ApplyDelta: every commit folds its
// ssd.Delta in with a copy-on-write Apply instead of rescanning, and the
// durable snapshot codec persists the result so recovery never rebuilds.
//
// All statistics are derived from edges only. Node counts are deliberately
// absent: ssd.Delta does not record node creation, so a node total could not
// be maintained incrementally — the planner reads Graph.NumNodes() directly,
// which is O(1).
package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ssd"
)

// HistBuckets is the size of the numeric-value histogram. The bucket
// function is structural (sign + exponent band of the value), not derived
// from the data, so incremental maintenance lands every edge in exactly the
// bucket a rebuild would — the property the incremental==rebuild test pins.
const HistBuckets = 64

// labelStat is the per-label statistic record. The map is a refcount —
// number of edge occurrences per source node — so deletions can maintain an
// exact distinct-source count, not a sketch.
type labelStat struct {
	count int                // edge occurrences with this label
	srcs  map[ssd.NodeID]int // refcount per source node
}

func (ls *labelStat) clone() *labelStat {
	nl := &labelStat{count: ls.count, srcs: make(map[ssd.NodeID]int, len(ls.srcs))}
	for n, c := range ls.srcs {
		nl.srcs[n] = c
	}
	return nl
}

// Stats is one immutable statistics version. Like the indexes it is
// copy-on-write: Apply returns a new version sharing the untouched per-label
// records with the receiver, which keeps answering for the old graph.
type Stats struct {
	edges    int
	perLabel map[ssd.Label]*labelStat
	hist     [HistBuckets]int64 // numeric (int/float) data-value edges
}

// Build scans g once and returns its statistics.
func Build(g *ssd.Graph) *Stats {
	s := &Stats{perLabel: make(map[ssd.Label]*labelStat)}
	for v := 0; v < g.NumNodes(); v++ {
		from := ssd.NodeID(v)
		for _, e := range g.Out(from) {
			s.addEdge(from, e.Label)
		}
	}
	return s
}

func (s *Stats) addEdge(from ssd.NodeID, l ssd.Label) {
	ls := s.perLabel[l]
	if ls == nil {
		ls = &labelStat{srcs: make(map[ssd.NodeID]int)}
		s.perLabel[l] = ls
	}
	ls.count++
	ls.srcs[from]++
	s.edges++
	if v, ok := l.Numeric(); ok {
		s.hist[bucketOf(v)]++
	}
}

func (s *Stats) removeEdge(from ssd.NodeID, l ssd.Label) {
	ls := s.perLabel[l]
	if ls == nil {
		return // delta inconsistent with this version; keep counts sane
	}
	ls.count--
	if ls.srcs[from]--; ls.srcs[from] <= 0 {
		delete(ls.srcs, from)
	}
	if ls.count <= 0 {
		delete(s.perLabel, l)
	}
	s.edges--
	if v, ok := l.Numeric(); ok {
		if b := bucketOf(v); s.hist[b] > 0 {
			s.hist[b]--
		}
	}
}

// Apply folds a mutation delta into the statistics, returning a new version
// and leaving the receiver untouched (copy-on-write: per-label records not
// named by the delta are shared). The delta is normalized first, mirroring
// the index maintenance contract: an edge added and removed within one batch
// never existed in the base graph.
func (s *Stats) Apply(d ssd.Delta) *Stats {
	d = d.Normalize()
	if d.Empty() {
		return s
	}
	ns := &Stats{
		edges:    s.edges,
		perLabel: make(map[ssd.Label]*labelStat, len(s.perLabel)),
		hist:     s.hist,
	}
	for l, ls := range s.perLabel {
		ns.perLabel[l] = ls // shared until touched
	}
	touched := make(map[ssd.Label]bool)
	privatize := func(l ssd.Label) {
		if touched[l] {
			return
		}
		touched[l] = true
		if ls := ns.perLabel[l]; ls != nil {
			ns.perLabel[l] = ls.clone()
		}
	}
	for _, r := range d.Removed {
		privatize(r.Label)
		ns.removeEdge(r.From, r.Label)
	}
	for _, a := range d.Added {
		privatize(a.Label)
		ns.addEdge(a.From, a.Label)
	}
	return ns
}

// Edges returns the total number of edge occurrences.
func (s *Stats) Edges() int { return s.edges }

// Count returns the number of edge occurrences labeled l.
func (s *Stats) Count(l ssd.Label) int {
	if ls := s.perLabel[l]; ls != nil {
		return ls.count
	}
	return 0
}

// DistinctSources returns the number of distinct nodes with an out-edge
// labeled l. For a data-value label this is "how many nodes carry this
// value" — the quantity equality-predicate selectivity divides by.
func (s *Stats) DistinctSources(l ssd.Label) int {
	if ls := s.perLabel[l]; ls != nil {
		return len(ls.srcs)
	}
	return 0
}

// NumericCount returns the number of numeric (int/float) value edges — the
// histogram's total mass.
func (s *Stats) NumericCount() int64 {
	var t int64
	for _, c := range s.hist {
		t += c
	}
	return t
}

// FracGreater estimates the fraction of numeric value edges whose value
// exceeds v: full buckets strictly above v's bucket plus half of v's own
// bucket (linear interpolation within the band). Returns 0 when there is no
// numeric mass.
func (s *Stats) FracGreater(v float64) float64 {
	total := s.NumericCount()
	if total == 0 {
		return 0
	}
	b := bucketOf(v)
	var above int64
	for i := b + 1; i < HistBuckets; i++ {
		above += s.hist[i]
	}
	return (float64(above) + 0.5*float64(s.hist[b])) / float64(total)
}

// FracLess is the mirror of FracGreater for values below v.
func (s *Stats) FracLess(v float64) float64 {
	total := s.NumericCount()
	if total == 0 {
		return 0
	}
	b := bucketOf(v)
	var below int64
	for i := 0; i < b; i++ {
		below += s.hist[i]
	}
	return (float64(below) + 0.5*float64(s.hist[b])) / float64(total)
}

// bucketOf maps a numeric value to its histogram bucket: bucket mid holds
// zero, positives occupy (mid, HistBuckets) and negatives [0, mid) by
// exponent band (two binary orders of magnitude per bucket, clamped). The
// mapping is monotone non-decreasing in v, which is what makes range
// selectivities a prefix/suffix sum.
func bucketOf(v float64) int {
	const mid = HistBuckets / 2
	if v == 0 || math.IsNaN(v) {
		return mid
	}
	band := func(abs float64) int {
		// Ilogb(|v|) for doubles is within [-1074, 1023]; shift and halve
		// into [0, mid-2].
		b := (math.Ilogb(abs) + 20) / 2
		if b < 0 {
			b = 0
		}
		if b > mid-2 {
			b = mid - 2
		}
		return b
	}
	if v > 0 {
		return mid + 1 + band(v)
	}
	return mid - 1 - band(-v)
}

// ---------------------------------------------------------------------------
// Dump / FromDump: the deterministic flat form used by the snapshot codec
// and by tests comparing statistics versions.

// NodeCount is one (node, refcount) pair of a dump.
type NodeCount struct {
	Node ssd.NodeID
	N    int
}

// LabelCard is the dumped record of one label: occurrence count plus the
// source refcount map, sorted by node.
type LabelCard struct {
	Label ssd.Label
	Count int
	Srcs  []NodeCount
}

// Dump is the deterministic flat view of a Stats version.
type Dump struct {
	Edges  int
	Hist   [HistBuckets]int64
	Labels []LabelCard
}

func sortedCounts(m map[ssd.NodeID]int) []NodeCount {
	out := make([]NodeCount, 0, len(m))
	for n, c := range m {
		out = append(out, NodeCount{Node: n, N: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Dump returns the statistics in deterministic flat form: labels sorted by
// ssd.Label.Less, node lists sorted by id.
func (s *Stats) Dump() Dump {
	d := Dump{Edges: s.edges, Hist: s.hist}
	labels := make([]ssd.Label, 0, len(s.perLabel))
	for l := range s.perLabel {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Less(labels[j]) })
	for _, l := range labels {
		ls := s.perLabel[l]
		d.Labels = append(d.Labels, LabelCard{
			Label: l,
			Count: ls.count,
			Srcs:  sortedCounts(ls.srcs),
		})
	}
	return d
}

// FromDump reconstructs a Stats version from its flat form, validating the
// invariants the codec relies on: sorted unique labels, sorted unique nodes,
// positive refcounts, and per-label refcount sums equal to the occurrence
// count (every edge contributes one source ref).
func FromDump(d Dump) (*Stats, error) {
	s := &Stats{edges: d.Edges, hist: d.Hist, perLabel: make(map[ssd.Label]*labelStat, len(d.Labels))}
	total := 0
	for i, lc := range d.Labels {
		if i > 0 && !d.Labels[i-1].Label.Less(lc.Label) {
			return nil, fmt.Errorf("stats: labels out of order at %v", lc.Label)
		}
		if lc.Count <= 0 {
			return nil, fmt.Errorf("stats: non-positive count for %v", lc.Label)
		}
		ls := &labelStat{count: lc.Count, srcs: make(map[ssd.NodeID]int, len(lc.Srcs))}
		if err := fillCounts(ls.srcs, lc.Srcs, lc.Count); err != nil {
			return nil, fmt.Errorf("stats: label %v: %w", lc.Label, err)
		}
		s.perLabel[lc.Label] = ls
		total += lc.Count
	}
	if total != d.Edges {
		return nil, fmt.Errorf("stats: edge total %d != per-label sum %d", d.Edges, total)
	}
	return s, nil
}

func fillCounts(m map[ssd.NodeID]int, ncs []NodeCount, want int) error {
	sum := 0
	for i, nc := range ncs {
		if i > 0 && ncs[i-1].Node >= nc.Node {
			return fmt.Errorf("source refs out of order at node %d", nc.Node)
		}
		if nc.N <= 0 {
			return fmt.Errorf("non-positive source refcount at node %d", nc.Node)
		}
		m[nc.Node] = nc.N
		sum += nc.N
	}
	if sum != want {
		return fmt.Errorf("source refcount sum %d != count %d", sum, want)
	}
	return nil
}
