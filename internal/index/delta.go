package index

import (
	"maps"
	"sort"

	"repro/internal/ssd"
)

// This file is the incremental-maintenance half of the package: instead of
// rebuilding an index from scratch after a mutation batch (O(E) scan, plus
// an O(E log E) sort for the value index), Apply derives the post-mutation
// index from the pre-mutation one and the batch's edge delta. Both Apply
// methods are copy-on-write: they return a NEW index sharing untouched
// storage with the receiver, which therefore keeps serving the old snapshot
// unchanged — the property the MVCC commit path in internal/core relies on.

// Apply derives the label index of the post-mutation graph. Posting lists of
// labels the delta does not touch are shared with the receiver, and so are
// their by-target views; touched ones are copied with removals tombstoned
// out (one occurrence per removal record, matching ssd.Graph.DeleteEdge)
// and additions appended, and their views are left to be rebuilt on first
// use. Cost is O(distinct labels + touched postings), independent of total
// edge count.
func (ix *LabelIndex) Apply(d ssd.Delta) *LabelIndex {
	d = d.Normalize()
	if d.Empty() {
		return ix
	}
	out := &LabelIndex{occ: make(map[ssd.Label][]EdgeRef, len(ix.occ))}
	for l, refs := range ix.occ {
		out.occ[l] = refs
	}
	ix.mu.Lock()
	out.views = maps.Clone(ix.views)
	ix.mu.Unlock()
	for _, r := range d.Removed {
		delete(out.views, r.Label)
	}
	for _, a := range d.Added {
		delete(out.views, a.Label)
	}
	// Tombstone removals label by label.
	rm := make(map[ssd.Label]map[EdgeRef]int)
	for _, r := range d.Removed {
		m := rm[r.Label]
		if m == nil {
			m = make(map[EdgeRef]int)
			rm[r.Label] = m
		}
		m[EdgeRef{r.From, r.To}]++
	}
	for l, counts := range rm {
		kept := make([]EdgeRef, 0, len(out.occ[l]))
		for _, ref := range out.occ[l] {
			if counts[ref] > 0 {
				counts[ref]--
				continue
			}
			kept = append(kept, ref)
		}
		if len(kept) == 0 {
			delete(out.occ, l)
		} else {
			out.occ[l] = kept
		}
	}
	// Append additions, privatizing each touched list once. Lists rewritten
	// by the removal pass are already private.
	private := make(map[ssd.Label]bool, len(rm))
	for l := range rm {
		private[l] = true
	}
	for _, a := range d.Added {
		refs := out.occ[a.Label]
		if !private[a.Label] {
			refs = append(make([]EdgeRef, 0, len(refs)+1), refs...)
			private[a.Label] = true
		}
		out.occ[a.Label] = append(refs, EdgeRef{a.From, a.To})
	}
	return out
}

// Apply derives the value index of the post-mutation graph by a single merge
// pass: additions are sorted among themselves and merged into the ordered
// entry array, removals are dropped (one occurrence per record). This is an
// O(E + |delta| log |delta|) copy with no comparisons re-sorted — the win
// over BuildValueIndex's full scan plus O(E log E) sort that experiment E13
// measures. The receiver is untouched.
func (ix *ValueIndex) Apply(d ssd.Delta) *ValueIndex {
	d = d.Normalize()
	if d.Empty() {
		return ix
	}
	adds := make([]valueEntry, 0, len(d.Added))
	for _, a := range d.Added {
		adds = append(adds, valueEntry{a.Label, EdgeRef{a.From, a.To}})
	}
	sort.Slice(adds, func(i, j int) bool {
		return adds[i].label.Compare(adds[j].label) < 0
	})
	// Locate each removal by binary search on its label run, collecting the
	// entry indices to skip; the merge below then runs on whole chunks
	// (memmove) instead of testing every entry.
	var skip []int
	var claimed map[int]bool
	for _, r := range d.Removed {
		ent := valueEntry{r.Label, EdgeRef{r.From, r.To}}
		lo := sort.Search(len(ix.entries), func(i int) bool {
			return ix.entries[i].label.Compare(r.Label) >= 0
		})
		for i := lo; i < len(ix.entries) && ix.entries[i].label.Compare(r.Label) == 0; i++ {
			if ix.entries[i] == ent && !claimed[i] {
				if claimed == nil {
					claimed = make(map[int]bool, len(d.Removed))
				}
				claimed[i] = true
				skip = append(skip, i)
				break
			}
		}
	}
	sort.Ints(skip)

	kept := ix.entries
	if len(skip) > 0 {
		kept = make([]valueEntry, 0, len(ix.entries)-len(skip))
		prev := 0
		for _, s := range skip {
			kept = append(kept, ix.entries[prev:s]...)
			prev = s + 1
		}
		kept = append(kept, ix.entries[prev:]...)
	}
	if len(adds) == 0 {
		return &ValueIndex{entries: kept}
	}
	out := make([]valueEntry, 0, len(kept)+len(adds))
	prev := 0
	for _, a := range adds {
		// Insert after any Compare-equal run; adds are sorted, so searching
		// the tail kept[prev:] keeps positions monotone.
		ip := prev + sort.Search(len(kept)-prev, func(i int) bool {
			return kept[prev+i].label.Compare(a.label) > 0
		})
		out = append(out, kept[prev:ip]...)
		out = append(out, a)
		prev = ip
	}
	out = append(out, kept[prev:]...)
	return &ValueIndex{entries: out}
}
