// Package index provides the label and value ("text") indexes §4 of the
// paper mentions as the natural extensions of existing optimization
// machinery: a LabelIndex from edge labels to their occurrences, and an
// ordered ValueIndex over data labels supporting range and prefix scans.
// These answer the §1.3 browsing queries (find a string anywhere, find
// integers > 2^16, find attribute names like "act%") without a full scan;
// experiment E2 measures the difference.
package index

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

// EdgeRef locates one edge occurrence in the indexed graph.
type EdgeRef struct {
	From ssd.NodeID
	To   ssd.NodeID
}

// LabelIndex maps each distinct label to every edge carrying it.
type LabelIndex struct {
	occ map[ssd.Label][]EdgeRef

	// views holds the by-target views ByTarget has built, one per label
	// asked for. The index is otherwise immutable; mu guards only these
	// lazy builds, so concurrent readers share one view per label.
	mu    sync.Mutex
	views map[ssd.Label]TargetView
}

// BuildLabelIndex scans g once and indexes every edge by its exact label.
// Any GraphStore works; on a paged store the id-order scan reads each page
// about once per run it appears in.
func BuildLabelIndex(g ssd.GraphStore) *LabelIndex {
	ix := &LabelIndex{occ: make(map[ssd.Label][]EdgeRef)}
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(ssd.NodeID(v)) {
			ix.occ[e.Label] = append(ix.occ[e.Label], EdgeRef{ssd.NodeID(v), e.To})
		}
	}
	return ix
}

// Lookup returns the occurrences of exactly l (no numeric overloading: the
// index is keyed on label identity, which is encoding identity; callers
// wanting 2 == 2.0, or -0.0 == 0.0, should probe every such label).
func (ix *LabelIndex) Lookup(l ssd.Label) []EdgeRef { return ix.occ[l] }

// Count returns the number of occurrences of exactly l — the per-label
// statistic query planners use to order pattern atoms by selectivity.
func (ix *LabelIndex) Count(l ssd.Label) int { return len(ix.occ[l]) }

// TargetView is one label's postings sorted by (To, From): the order in
// which backward verification asks "which edges with this label enter n?".
type TargetView []EdgeRef

// ByTarget returns l's by-target view. The first call for a label sorts a
// copy of its posting list, or shares the list when it is already in
// target order (root fan-outs such as Entry usually are); later calls, from
// any goroutine, return the same view. The view is read-only.
func (ix *LabelIndex) ByTarget(l ssd.Label) TargetView {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if v, ok := ix.views[l]; ok {
		return v
	}
	v := TargetView(ix.occ[l])
	if !slices.IsSortedFunc(v, byTarget) {
		v = slices.Clone(v)
		slices.SortFunc(v, byTarget)
	}
	if ix.views == nil {
		ix.views = make(map[ssd.Label]TargetView)
	}
	ix.views[l] = v
	return v
}

func byTarget(a, b EdgeRef) int {
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	return cmp.Compare(a.From, b.From)
}

// Into returns the postings of v whose target is n, by binary search.
func (v TargetView) Into(n ssd.NodeID) []EdgeRef {
	lo, hi := 0, len(v)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if v[m].To < n {
			lo = m + 1
		} else {
			hi = m
		}
	}
	end := lo
	for end < len(v) && v[end].To == n {
		end++
	}
	return v[lo:end]
}

// Labels returns all indexed labels, sorted.
func (ix *LabelIndex) Labels() []ssd.Label {
	ls := make([]ssd.Label, 0, len(ix.occ))
	for l := range ix.occ {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Less(ls[j]) })
	return ls
}

// Len returns the number of distinct labels.
func (ix *LabelIndex) Len() int { return len(ix.occ) }

// ValueIndex is an ordered index over all edge labels, grouped by kind and
// sorted within each kind, supporting range scans (numerics, strings) and
// prefix scans (strings and symbols).
type ValueIndex struct {
	entries []valueEntry // sorted by (kind group, Label.Compare)
}

type valueEntry struct {
	label ssd.Label
	ref   EdgeRef
}

// BuildValueIndex scans g once and builds the ordered index.
func BuildValueIndex(g ssd.GraphStore) *ValueIndex {
	ix := &ValueIndex{}
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(ssd.NodeID(v)) {
			ix.entries = append(ix.entries, valueEntry{e.Label, EdgeRef{ssd.NodeID(v), e.To}})
		}
	}
	sort.Slice(ix.entries, func(i, j int) bool {
		return ix.entries[i].label.Compare(ix.entries[j].label) < 0
	})
	return ix
}

// Len returns the number of indexed edges.
func (ix *ValueIndex) Len() int { return len(ix.entries) }

// Exact returns occurrences of exactly l (binary search).
func (ix *ValueIndex) Exact(l ssd.Label) []EdgeRef {
	lo := sort.Search(len(ix.entries), func(i int) bool {
		return ix.entries[i].label.Compare(l) >= 0
	})
	var out []EdgeRef
	for i := lo; i < len(ix.entries) && ix.entries[i].label.Compare(l) == 0; i++ {
		out = append(out, ix.entries[i].ref)
	}
	return out
}

// Compare evaluates `label op rhs` over the index. Equality and ordered
// comparisons on numerics and strings use binary search on the ordered run
// of the rhs's kind; != and cross-kind cases fall back to a filtered scan.
func (ix *ValueIndex) Compare(op pathexpr.CmpOp, rhs ssd.Label) []EdgeRef {
	pred := pathexpr.CmpPred{Op: op, Rhs: rhs}
	if op == pathexpr.OpNE {
		return ix.scan(pred) // no contiguous run
	}
	return ix.rangeScan(pred, rhs)
}

// rangeScan handles <, <=, >, >= by locating the boundary with binary search
// and walking the appropriate direction while the predicate holds within the
// comparable region. Numeric rhs spans the int+float run; string rhs spans
// the string run; symbol rhs the symbol run.
func (ix *ValueIndex) rangeScan(pred pathexpr.CmpPred, rhs ssd.Label) []EdgeRef {
	lo := sort.Search(len(ix.entries), func(i int) bool {
		return ix.entries[i].label.Compare(rhs) >= 0
	})
	var out []EdgeRef
	switch pred.Op {
	case pathexpr.OpEQ:
		// Equal entries are contiguous around lo: numeric ties may sit just
		// before lo when the kind tiebreak orders them earlier.
		for i := lo; i < len(ix.entries) && pred.Match(ix.entries[i].label); i++ {
			out = append(out, ix.entries[i].ref)
		}
		for i := lo - 1; i >= 0 && pred.Match(ix.entries[i].label); i-- {
			out = append(out, ix.entries[i].ref)
		}
	case pathexpr.OpGT, pathexpr.OpGE:
		for i := lo; i < len(ix.entries); i++ {
			l := ix.entries[i].label
			if !sameComparisonGroup(l, rhs) {
				break
			}
			if pred.Match(l) {
				out = append(out, ix.entries[i].ref)
			}
		}
		// Entries numerically ≥ rhs can also sit just before lo when kinds
		// tie (e.g. Int(2) vs Float(2.0) orders by kind); sweep the boundary.
		for i := lo - 1; i >= 0; i-- {
			l := ix.entries[i].label
			if !sameComparisonGroup(l, rhs) || !pred.Match(l) {
				break
			}
			out = append(out, ix.entries[i].ref)
		}
	case pathexpr.OpLT, pathexpr.OpLE:
		for i := lo - 1; i >= 0; i-- {
			l := ix.entries[i].label
			if !sameComparisonGroup(l, rhs) {
				break
			}
			if pred.Match(l) {
				out = append(out, ix.entries[i].ref)
			}
		}
		for i := lo; i < len(ix.entries); i++ {
			l := ix.entries[i].label
			if !sameComparisonGroup(l, rhs) || !pred.Match(l) {
				break
			}
			out = append(out, ix.entries[i].ref)
		}
	}
	return out
}

func sameComparisonGroup(a, b ssd.Label) bool {
	if _, ok := a.Numeric(); ok {
		_, ok2 := b.Numeric()
		return ok2
	}
	return a.Kind() == b.Kind()
}

// Like returns occurrences whose symbol/string payload matches the SQL-style
// %-pattern. A literal prefix before the first % narrows the scan to the
// prefix range of both the symbol and string runs.
func (ix *ValueIndex) Like(pattern string) []EdgeRef {
	pred := pathexpr.LikePred{Pattern: pattern}
	prefix := pattern
	if i := strings.IndexByte(pattern, '%'); i >= 0 {
		prefix = pattern[:i]
	}
	if prefix == "" {
		return ix.scan(pred)
	}
	var out []EdgeRef
	for _, probe := range []ssd.Label{ssd.Sym(prefix), ssd.Str(prefix)} {
		lo := sort.Search(len(ix.entries), func(i int) bool {
			return ix.entries[i].label.Compare(probe) >= 0
		})
		for i := lo; i < len(ix.entries); i++ {
			l := ix.entries[i].label
			if l.Kind() != probe.Kind() {
				break
			}
			s := payload(l)
			if !strings.HasPrefix(s, prefix) {
				break
			}
			if pred.Match(l) {
				out = append(out, ix.entries[i].ref)
			}
		}
	}
	return out
}

// Scan returns occurrences matching an arbitrary predicate by full scan —
// the baseline every indexed access is measured against in E2.
func (ix *ValueIndex) Scan(pred pathexpr.Pred) []EdgeRef { return ix.scan(pred) }

func (ix *ValueIndex) scan(pred pathexpr.Pred) []EdgeRef {
	var out []EdgeRef
	for _, ent := range ix.entries {
		if pred.Match(ent.label) {
			out = append(out, ent.ref)
		}
	}
	return out
}

func payload(l ssd.Label) string {
	if s, ok := l.Symbol(); ok {
		return s
	}
	s, _ := l.Text()
	return s
}

// ScanGraph evaluates a predicate over every edge of g without any index —
// the true full-scan baseline (no presorted entry array).
func ScanGraph(g ssd.GraphStore, pred pathexpr.Pred) []EdgeRef {
	var out []EdgeRef
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(ssd.NodeID(v)) {
			if pred.Match(e.Label) {
				out = append(out, EdgeRef{ssd.NodeID(v), e.To})
			}
		}
	}
	return out
}
