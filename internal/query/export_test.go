package query

// Fixtures for the checks against the reference evaluator in package
// query_test (oracle_test.go): internal/oracle imports this package, so
// package query's own tests cannot import it.
var (
	EngineCases = engineCases
	CaseGraph   = caseGraph
	EvalPlanned = evalPlanned
	Fig1DB      = db
	PlanFor     = planFor
	AtomOrder   = atomOrder
)

// DedupAtoms reports, per planned atom, whether it deduplicates its
// destinations.
func DedupAtoms(p *Plan) []bool {
	out := make([]bool, len(p.atoms))
	for i, a := range p.atoms {
		out[i] = a.dedup
	}
	return out
}

// IdleExecutor returns the executor p's next execution will reuse, or nil.
func IdleExecutor(p *Plan) any {
	if p.idleEx == nil {
		return nil
	}
	return p.idleEx
}
