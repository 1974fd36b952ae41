// Package stats maintains the cardinality statistics the cost-based query
// planner feeds on: per-label edge counts, distinct source counts, and a
// fixed-bucket log-scale histogram over numeric data values. The
// statistics are built in one pass over a graph (Build) and then kept
// consistent with the derived-structure maintenance discipline of
// index.LabelIndex.Apply: every commit folds its ssd.Delta in with a
// copy-on-write Apply instead of rescanning, and opening a durable
// database builds them once from the recovered graph. Apply reads only the
// delta — its edge records and the source changes the write path recorded
// — so it costs the labels the commit touched, not the database (Decker's
// principle for derived data).
//
// All statistics are derived from edges only. Node counts are deliberately
// absent: ssd.Delta does not record node creation, so a node total could not
// be maintained incrementally — the planner reads Graph.NumNodes() directly,
// which is O(1).
package stats

import (
	"math"
	"sort"

	"repro/internal/ssd"
)

// HistBuckets is the size of the numeric-value histogram. The bucket
// function is structural (sign + exponent band of the value), not derived
// from the data, so incremental maintenance lands every edge in exactly the
// bucket a rebuild would — the property the incremental==rebuild test pins.
const HistBuckets = 64

// labelStat is the per-label statistic record: two integers. The
// distinct-source count is kept exact without per-node state because the
// write path reports, in ssd.Delta.Sources, every node that gains its first
// or loses its last out-edge with a label.
type labelStat struct {
	count   int // edge occurrences with this label
	sources int // distinct nodes with an out-edge with this label
}

// minFold is the overlay size below which Apply never folds.
const minFold = 64

// Stats is one immutable statistics version. The per-label table is a
// shared, never-written base map plus a small overlay that each Apply
// copies: a label absent from over reads from base, and a zero count in
// over deletes the label. When the overlay outgrows the square root of the
// base (and minFold), Apply folds it into a fresh base, so a commit copies
// O(√labels) entries and a fold's O(labels) copy is paid once per
// O(√labels) touched labels.
type Stats struct {
	edges int
	base  map[ssd.Label]labelStat
	over  map[ssd.Label]labelStat
	hist  [HistBuckets]int64 // numeric (int/float) data-value edges
}

// Build scans g once and returns its statistics.
func Build(g *ssd.Graph) *Stats {
	s := &Stats{base: make(map[ssd.Label]labelStat)}
	last := make(map[ssd.Label]ssd.NodeID) // the last source counted per label
	for v := 0; v < g.NumNodes(); v++ {
		from := ssd.NodeID(v)
		for _, e := range g.Out(from) {
			ls := s.base[e.Label]
			ls.count++
			if prev, ok := last[e.Label]; !ok || prev != from {
				last[e.Label] = from
				ls.sources++
			}
			s.base[e.Label] = ls
			s.edges++
			s.addHist(e.Label, 1)
		}
	}
	return s
}

func (s *Stats) get(l ssd.Label) labelStat {
	if ls, ok := s.over[l]; ok {
		return ls
	}
	return s.base[l]
}

func (s *Stats) addHist(l ssd.Label, n int64) {
	if v, ok := l.Numeric(); ok {
		if b := bucketOf(v); s.hist[b]+n >= 0 {
			s.hist[b] += n
		}
	}
}

// Apply folds a mutation delta into the statistics, returning a new version
// and leaving the receiver untouched. It costs O(labels the delta touches
// + overlay size): edge records move counts, and Delta.Sources moves the
// distinct-source counts, so the delta must carry the source changes that
// mutate.ApplyCOW and ApplyInPlace record. The delta is normalized first,
// mirroring the index maintenance contract: an edge added and removed
// within one batch never existed in the base graph.
func (s *Stats) Apply(d ssd.Delta) *Stats {
	d = d.Normalize()
	if d.Empty() {
		return s
	}
	ns := &Stats{
		edges: s.edges,
		base:  s.base,
		over:  make(map[ssd.Label]labelStat, len(s.over)+len(d.Added)+len(d.Removed)),
		hist:  s.hist,
	}
	for l, ls := range s.over {
		ns.over[l] = ls
	}
	for _, r := range d.Removed {
		ls := ns.get(r.Label)
		if ls.count == 0 {
			continue // delta inconsistent with this version; keep counts sane
		}
		ls.count--
		ns.over[r.Label] = ls
		ns.edges--
		ns.addHist(r.Label, -1)
	}
	for _, a := range d.Added {
		ls := ns.get(a.Label)
		ls.count++
		ns.over[a.Label] = ls
		ns.edges++
		ns.addHist(a.Label, 1)
	}
	for _, c := range d.Sources {
		ls := ns.get(c.Label)
		ls.sources += c.N
		ns.over[c.Label] = ls
	}
	if len(ns.over) > minFold && len(ns.over)*len(ns.over) > len(ns.base) {
		ns.fold()
	}
	return ns
}

// fold merges the overlay into a fresh base map.
func (s *Stats) fold() {
	base := make(map[ssd.Label]labelStat, len(s.base)+len(s.over))
	for l, ls := range s.base {
		base[l] = ls
	}
	for l, ls := range s.over {
		if ls.count > 0 {
			base[l] = ls
		} else {
			delete(base, l)
		}
	}
	s.base, s.over = base, nil
}

// Edges returns the total number of edge occurrences.
func (s *Stats) Edges() int { return s.edges }

// Count returns the number of edge occurrences labeled l.
func (s *Stats) Count(l ssd.Label) int { return s.get(l).count }

// DistinctSources returns the number of distinct nodes with an out-edge
// labeled l. For a data-value label this is "how many nodes carry this
// value" — the quantity equality-predicate selectivity divides by.
func (s *Stats) DistinctSources(l ssd.Label) int { return s.get(l).sources }

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
// Dump: the deterministic flat form tests compare statistics versions by.

// LabelCard is the dumped record of one label: occurrence count and
// distinct-source count.
type LabelCard struct {
	Label   ssd.Label
	Count   int
	Sources int
}

// Dump is the deterministic flat view of a Stats version.
type Dump struct {
	Edges  int
	Hist   [HistBuckets]int64
	Labels []LabelCard
}

// Dump returns the statistics in deterministic flat form, labels sorted by
// ssd.Label.Less.
func (s *Stats) Dump() Dump {
	d := Dump{Edges: s.edges, Hist: s.hist, Labels: make([]LabelCard, 0, len(s.base)+len(s.over))}
	for l, ls := range s.base {
		if _, ok := s.over[l]; !ok {
			d.Labels = append(d.Labels, LabelCard{Label: l, Count: ls.count, Sources: ls.sources})
		}
	}
	for l, ls := range s.over {
		if ls.count > 0 {
			d.Labels = append(d.Labels, LabelCard{Label: l, Count: ls.count, Sources: ls.sources})
		}
	}
	sort.Slice(d.Labels, func(i, j int) bool { return d.Labels[i].Label.Less(d.Labels[j].Label) })
	return d
}
