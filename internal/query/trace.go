package query

import "strings"

// ExecTrace records operator-level statistics for one cursor execution: the
// per-query face of observability, as opposed to the process-wide counters
// in internal/obs. The caller allocates one, passes it to CursorParallel,
// and reads it after the cursor is closed — a trace is not synchronized for
// reading mid-flight.
//
// Tracing is strictly opt-in: with a nil trace the executor's hot path pays
// one pointer nil-check per pull and allocates nothing.
type ExecTrace struct {
	// AtomRows counts the rows that survived each atom's filters, in plan
	// order — the same counters ExplainAnalyze renders as "actual".
	AtomRows []int64
	// AtomNanos is the wall time spent inside each atom's iterators
	// (opening scans and pulling matches), in plan order. Under parallel
	// execution the per-atom times of all workers are summed, so the total
	// can exceed the query's wall clock — it is CPU-style attributed time.
	AtomNanos []int64

	// Parallel execution shape; zero for serial runs.
	Workers     int   // worker executors in the pool
	MorselSize  int   // seeds per primary morsel
	Morsels     int64 // morsels executed
	MergeStalls int64 // times the consumer blocked waiting for the next batch
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
	t.Workers, t.MorselSize = 0, 0
	t.Morsels, t.MergeStalls = 0, 0
}

// merge folds a coordinator- or worker-local trace into t. Callers
// serialize merges (the parallel pool merges under a mutex at goroutine
// exit).
func (t *ExecTrace) merge(o *ExecTrace) {
	for i := range o.AtomRows {
		t.AtomRows[i] += o.AtomRows[i]
		t.AtomNanos[i] += o.AtomNanos[i]
	}
	t.Morsels += o.Morsels
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
