package index

import (
	"sort"

	"repro/internal/ssd"
)

// Posting is one label's posting list, as exposed by LabelIndex.Dump.
type Posting struct {
	Label ssd.Label
	Refs  []EdgeRef
}

// Dump returns the index contents sorted by label, with each posting list
// in its internal (scan) order — the deterministic form tests compare a
// maintained index with a rebuild by. The returned slices share storage
// with the index and must be treated as read-only.
func (ix *LabelIndex) Dump() []Posting {
	out := make([]Posting, 0, len(ix.occ))
	for l, refs := range ix.occ {
		out = append(out, Posting{Label: l, Refs: refs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label.Less(out[j].Label) })
	return out
}
