package query

import "strings"

// ExecTrace records operator-level statistics for one cursor execution: the
// per-query face of observability, as opposed to the process-wide counters
// in internal/obs. The caller allocates one, passes it to Plan.Cursor, and
// reads it after the cursor is exhausted or closed.
//
// Tracing is strictly opt-in: with a nil trace the executor's hot path pays
// one pointer nil-check per pull and allocates nothing.
type ExecTrace struct {
	// AtomRows counts the rows that survived each atom's filters, in plan
	// order — the same counters ExplainAnalyze renders as "actual".
	AtomRows []int64
	// AtomNanos is the wall time spent inside each atom's iterators
	// (opening scans and pulling matches), in plan order.
	AtomNanos []int64
}

// init sizes the per-atom slices for a plan with n atoms, reusing capacity
// on a recycled trace.
func (t *ExecTrace) init(n int) {
	if cap(t.AtomRows) >= n {
		t.AtomRows = t.AtomRows[:n]
		t.AtomNanos = t.AtomNanos[:n]
		clear(t.AtomRows)
		clear(t.AtomNanos)
	} else {
		t.AtomRows = make([]int64, n)
		t.AtomNanos = make([]int64, n)
	}
}

// AtomDescs renders one human-readable descriptor per planned atom, in plan
// order — `M := DB.Entry.Movie [index-seek]` — for labeling trace spans.
// Indices line up with ExecTrace.AtomRows/AtomNanos.
func (p *Plan) AtomDescs() []string {
	out := make([]string, len(p.atoms))
	for i, a := range p.atoms {
		var b strings.Builder
		b.WriteString(a.b.Var)
		b.WriteString(" := ")
		b.WriteString(a.b.Source)
		writeSteps(&b, a.b.Path)
		b.WriteString(" [")
		b.WriteString(a.access.String())
		b.WriteByte(']')
		out[i] = b.String()
	}
	return out
}
