// Package repro is a Go reproduction of Peter Buneman's PODS '97 tutorial
// "Semistructured Data": the edge-labeled graph data model, the
// select-from-where query language with regular path expressions (the
// UnQL/Lorel select fragment), structural recursion (UnQL's algebra), graph
// datalog over the edge relation, graph schemas with simulation-based
// conformance, strong DataGuides, query decomposition over sites, and a
// simulated native store.
//
// # Query engine
//
// Query evaluation is split into three layers (see ARCHITECTURE.md for the
// full picture and extension points):
//
//   - a planner (internal/query/plan.go) that resolves every tree, label
//     and path variable to a fixed integer slot, orders the from-clause
//     pattern atoms by estimated selectivity, chooses an access path per
//     atom (forward lazy-DFA traversal, DataGuide-pruned evaluation, label
//     index posting-list seeks, or backward verification from the rarest
//     label over reverse edges), and pushes each where-conjunct to the
//     earliest atom at which its variables are bound;
//
//   - a pull-based iterator executor (internal/query/exec.go) — Volcano
//     style Next() operators over one flat slot array, with no per-binding
//     allocation on the join/filter hot path;
//
//   - iterator surfaces in the lower layers: pathexpr.Traversal (resumable
//     product traversal sharing the lazy-DFA cache), index.Cursor
//     (posting-list seeks), dataguide.ExtentCursor (guide-pruned extents),
//     and ssd.Graph.In (cached reverse adjacency).
//
// The original recursive tree-walking evaluator is retained as
// query.EvalNaive — a reference implementation, not a selectable engine —
// cross-checked against the planned engine on the whole query test suite
// and ablated by BenchmarkPlannedVsNaive.
//
// All four text front-ends (ssd text, queries, path expressions, datalog)
// share one scanner, ssd.Scanner, and one path grammar, owned by
// internal/pathexpr; see ARCHITECTURE.md "Lexical layer".
//
// # Write path
//
// Updates flow through internal/mutate: typed mutation records are gathered
// into a Batch and applied copy-on-write (only touched adjacency slices are
// copied), yielding a new graph version plus the edge delta that drives
// incremental maintenance of what the planner reads — index.LabelIndex.Apply
// patches posting lists, stats.Stats.Apply the cardinality counts, and
// dataguide.Guide.ApplyDelta extends the strong DataGuide for added edges,
// falling back to a rebuild only when a delete touches the accessible
// region. internal/core publishes each version
// as an MVCC snapshot behind an atomic pointer: readers keep querying the
// snapshot they started with while Begin/Commit installs the next one under
// a single-writer lock. A durable directory (core.OpenPath: snapshot
// generations plus a write-ahead log) logs every commit before publishing
// it and replays the log tail at open. Ablated by
// BenchmarkIncrementalVsRebuild.
//
// # Parallel execution and serving
//
// Queries can fan their join work across a pool of shared-nothing worker
// executors (internal/query/parallel.go): the leading atom's rows are
// materialized in serial order, partitioned into morsels, executed by
// per-worker compiled plans pulling from one shared queue (the only load
// balancer), and merged in morsel order — so parallel output is
// byte-identical to serial output. core.Database.SetParallelism
// sets the per-database default Stmt.Query picks up; the per-statement
// plan pool hands out one plan per worker. cmd/ssdserve serves it all over
// HTTP/JSON (streamed NDJSON rows, $name parameters, per-request
// timeouts, WAL-backed writes via /mutate, graceful drain), backed by the
// database's LRU statement cache. Ablated by BenchmarkParallelVsSerial.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the reproduced results. The root package holds only
// the benchmark harness (bench_test.go); the library lives under
// internal/, with internal/core as the serving facade: statements run only
// through Prepare/PrepareCached and Stmt, and the paper's other tools
// (value indexes, schemas, bisimulation, relational and OEM exchange) are
// leaf packages called on db.Graph().
package repro
