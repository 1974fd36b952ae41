package query

import (
	"context"
	"fmt"

	"repro/internal/ssd"
)

// Cursor is the exported streaming face of the iterator executor: the
// run-many half of a prepared statement. It pulls binding rows directly
// from the Volcano pipeline — nothing is materialized — and exposes them
// through reusable-slot accessors, so the per-row cost is whatever the
// join itself does, not map building.
//
// A Cursor mutates plan-owned DFA caches and is therefore not safe for
// concurrent use; open one cursor per goroutine (the statement layer pools
// plans to make that cheap).
type Cursor struct {
	p      *Plan
	ex     *executor
	closed bool
	err    error // terminal error snapshotted at Close; see Err
}

// paramVals validates params against the plan's declared parameters and
// returns them as a positional slice in slot order.
func (p *Plan) paramVals(params map[string]ssd.Label) ([]ssd.Label, error) {
	var vals []ssd.Label
	if len(p.paramName) > 0 {
		vals = make([]ssd.Label, len(p.paramName))
		for i, name := range p.paramName {
			v, ok := params[name]
			if !ok {
				return nil, fmt.Errorf("query: parameter $%s not bound", name)
			}
			vals[i] = v
		}
	}
	for name := range params {
		if _, ok := p.paramSlot[name]; !ok {
			return nil, fmt.Errorf("query: unknown parameter $%s", name)
		}
	}
	return vals, nil
}

// Cursor opens a streaming execution of the plan. params supplies a value
// for every $parameter the plan declares (Params); missing or unknown names
// are an error. ctx cancellation stops iteration within one pull: Next
// returns false and Err reports the context error.
//
// A non-nil tr (reinitialized for this plan) records operator-level
// statistics — per-atom rows and wall time — and is complete once the
// cursor is exhausted or closed. A nil tr runs untraced.
//
//ssd:mustclose
func (p *Plan) Cursor(ctx context.Context, params map[string]ssd.Label, tr *ExecTrace) (*Cursor, error) {
	vals, err := p.paramVals(params)
	if err != nil {
		return nil, err
	}
	ex := p.exec(ctx, vals)
	if tr != nil {
		tr.init(len(p.atoms))
		ex.trace = tr
	}
	return &Cursor{p: p, ex: ex}, nil
}

// Next advances to the next binding row, returning false when the space is
// exhausted, the context is cancelled, execution failed, or the cursor was
// closed (check Err to distinguish).
func (c *Cursor) Next() bool {
	if c.closed {
		return false
	}
	return c.ex.Next()
}

// Err returns the terminal error that ended iteration early — context
// cancellation or a recovered execution panic — or nil after a clean
// exhaustion. Err remains valid after Close (the database/sql idiom): Close
// snapshots it before the executor is recycled, so it can never observe a
// later execution's state.
func (c *Cursor) Err() error {
	if c.closed {
		return c.err
	}
	return c.ex.err
}

// Close hands the cursor's executor (and the scratch arrays it grew) back
// to the plan for the next execution. Close is idempotent. Iterating a
// closed cursor reports exhaustion.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	// Snapshot the terminal error before releasing: the executor may be
	// recycled by the plan's next execution, and Err-after-Close is a
	// documented pattern.
	c.err = c.ex.err
	c.closed = true
	c.ex.release()
}

// Env materializes the current row as a fresh Env. Prefer EnvInto or the
// slot accessors on hot paths.
func (c *Cursor) Env() Env {
	var e Env
	c.EnvInto(&e)
	return e
}

// EnvInto writes the current row into e, reusing its maps (allocating them
// on first use). The filled Env is valid until the next Next call in the
// sense that path-variable slices are shared with the engine and must be
// treated as read-only.
func (c *Cursor) EnvInto(e *Env) {
	p := c.p
	if e.Trees == nil {
		e.Trees = make(map[string]ssd.NodeID, len(p.treeName))
	} else {
		clear(e.Trees)
	}
	if e.Labels == nil {
		e.Labels = make(map[string]ssd.Label, len(p.labelName))
	} else {
		clear(e.Labels)
	}
	if e.Paths == nil {
		e.Paths = make(map[string][]ssd.Label, len(p.pathName))
	} else {
		clear(e.Paths)
	}
	r := &c.ex.regs
	for i, name := range p.treeName {
		e.Trees[name] = r.trees[i]
	}
	for i, name := range p.labelName {
		e.Labels[name] = r.labels[i]
	}
	for i, name := range p.pathName {
		e.Paths[name] = r.paths[i]
	}
}

// Tree returns the node bound to tree-variable slot i. Tree slots follow
// the from-clause binding order.
func (c *Cursor) Tree(i int) ssd.NodeID { return c.ex.regs.trees[i] }

// Label returns the label bound to label-variable slot i. Label slots
// follow first-occurrence order over the from clause.
func (c *Cursor) Label(i int) ssd.Label { return c.ex.regs.labels[i] }

// Path returns the witness path bound to path-variable slot i (first-
// occurrence order). The slice is shared with the engine; treat it as
// read-only and copy it if it must outlive the current row.
func (c *Cursor) Path(i int) []ssd.Label { return c.ex.regs.paths[i] }
