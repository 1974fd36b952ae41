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
