package core

// QueryTrace is the per-execution trace QueryTraced records: the JSON-ready
// face of query.ExecTrace plus statement-level context (language, plan-pool
// outcome, row count, wall time). The server appends it to the NDJSON
// status line under ?trace=1 and embeds it in slow-query log records; ssdq
// prints it for -trace.

import "repro/internal/query"

// AtomTrace is one operator-level span: a planned atom's descriptor, the
// optimizer's cardinality estimate, and what actually happened.
type AtomTrace struct {
	// Op describes the atom: variable, source path, access method — e.g.
	// `M := DB.Entry.Movie [index-seek]`.
	Op string `json:"op"`
	// Est is the cost model's estimated rows surviving this atom.
	Est float64 `json:"est"`
	// Rows is the actual rows that survived the atom's filters.
	Rows int64 `json:"rows"`
	// TimeUS is wall time attributed to the atom's iterators in
	// microseconds.
	TimeUS int64 `json:"time_us"`
}

// QueryTrace records one statement execution. Populate by passing a zero
// value to Stmt.QueryTraced and reading it after Rows.Close.
type QueryTrace struct {
	Lang       string `json:"lang"`
	PlanPooled bool   `json:"plan_pooled"`

	// Paged-store buffer pool activity over this execution's lifetime,
	// present only when the snapshot is page-backed. The counters are
	// store-wide deltas, so concurrent queries on the same pool bleed into
	// each other's numbers — treat them as attribution, not accounting.
	PoolHits      int64 `json:"pool_hits,omitempty"`
	PoolMisses    int64 `json:"pool_misses,omitempty"`
	PoolEvictions int64 `json:"pool_evictions,omitempty"`

	Rows      int64  `json:"rows"`
	ElapsedUS int64  `json:"elapsed_us"`
	Error     string `json:"error,omitempty"`

	Atoms []AtomTrace `json:"atoms,omitempty"`
}

// fillExec folds the executor-level trace into the statement trace,
// labeling each span from the plan. Runs at Rows.Close, after the cursor
// has closed.
func (t *QueryTrace) fillExec(p *query.Plan, et *query.ExecTrace) {
	descs := p.AtomDescs()
	infos := p.Atoms()
	t.Atoms = make([]AtomTrace, len(et.AtomRows))
	for i := range t.Atoms {
		at := AtomTrace{Rows: et.AtomRows[i], TimeUS: et.AtomNanos[i] / 1e3}
		if i < len(descs) {
			at.Op = descs[i]
		}
		if i < len(infos) {
			at.Est = infos[i].Est
		}
		t.Atoms[i] = at
	}
}
