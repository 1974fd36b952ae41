package core

// The graph-datalog front-end (LangDatalog): the program is checked at
// Prepare, evaluated semi-naively to its fixpoint when an execution opens,
// and the tuples stream as ("rel", "tuple") rows, relations in name order.

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/datalog"
	"repro/internal/query"
	"repro/internal/ssd"
)

type datalogStmt struct{ prog *datalog.Program }

func prepareDatalog(s *Stmt, body string) error {
	prog, err := datalog.ParseProgram(body)
	if err != nil {
		return err
	}
	if err := datalog.Check(prog); err != nil {
		return err
	}
	s.cols = []string{"rel", "tuple"}
	s.fe = datalogStmt{prog}
	return nil
}

func (d datalogStmt) explain(*snapshot) (string, error) {
	return fmt.Sprintf("datalog: %d rules, semi-naive\n", len(d.prog.Rules)), nil
}

func (d datalogStmt) exec(context.Context, *snapshot, map[string]ssd.Label) (*ssd.Graph, error) {
	return nil, fmt.Errorf("core: datalog statements produce rows, not a database; use Query")
}

// open runs the program to its fixpoint; a cancelled ctx stops it between
// rounds or within a round's joins.
func (d datalogStmt) open(ctx context.Context, snap *snapshot, _ map[string]ssd.Label, _ *QueryTrace) (rowSource, error) {
	rels, err := datalog.NewEngine(snap.store()).Run(ctx, d.prog, datalog.SemiNaive)
	if err != nil {
		return nil, err
	}
	return &datalogRows{names: slices.Sorted(maps.Keys(rels)), rels: rels}, nil
}

type datalogRows struct {
	names []string
	rels  map[string]*datalog.Relation
	ri    int // current relation
	ti    int // next tuple within it
	tup   datalog.Tuple
}

func (r *datalogRows) next() bool {
	for ; r.ri < len(r.names); r.ri, r.ti = r.ri+1, 0 {
		if tuples := r.rels[r.names[r.ri]].Tuples(); r.ti < len(tuples) {
			r.tup = tuples[r.ti]
			r.ti++
			return true
		}
	}
	return false
}

func (r *datalogRows) err() error     { return nil }
func (r *datalogRows) env(*query.Env) {}
func (r *datalogRows) close()         {}

func (r *datalogRows) scan(i int, dest any) error {
	if i == 0 {
		d, ok := dest.(*string)
		if !ok {
			return fmt.Errorf("want *string, got %T", dest)
		}
		*d = r.names[r.ri]
		return nil
	}
	switch d := dest.(type) {
	case *datalog.Tuple:
		*d = r.tup
	case *string:
		*d = r.tup.String()
	default:
		return fmt.Errorf("want *datalog.Tuple or *string, got %T", dest)
	}
	return nil
}
