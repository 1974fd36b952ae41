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
//     product traversal sharing the lazy-DFA cache), index.LabelIndex
//     posting lists with index.TargetView (by-target postings for
//     backward verification), and dataguide.Guide.Eval (guide-pruned
//     extents); traversals and the executor's dedup share one
//     visited-node set, ssd.NodeSet.
//
// The original recursive tree-walking evaluator is the test-only
// internal/oracle — a reference implementation, not a selectable engine.
// FuzzEngines checks every execution mode against it, and
// BenchmarkPlannedVsNaive ablates it.
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
// patches posting lists and stats.Stats.Apply the per-label counts (the
// delta carries the source changes the write path saw, so Apply costs the
// labels a commit touched, not the database). internal/core publishes each
// version as an MVCC snapshot behind an atomic pointer: readers keep
// querying the snapshot they started with while Begin/Commit installs the
// next one under a single-writer lock. A durable directory (core.OpenPath:
// snapshot generations plus a write-ahead log) logs every commit before
// publishing it; a generation stores only its graph, and opening one
// replays the log tail and then builds the label index and statistics from
// the recovered graph. Ablated by BenchmarkIncrementalVsRebuild.
//
// # Serving
//
// Each query runs on one serial Volcano executor; a server keeps its cores
// busy with concurrent requests, each drawing its own compiled plan from
// the statement's per-snapshot plan pool. The paper's one parallel
// evaluation, §4's decomposition of a query across sites, is
// internal/decomp. cmd/ssdserve serves the database over HTTP/JSON
// (streamed NDJSON rows, $name parameters, per-request timeouts,
// WAL-backed writes via /mutate, graceful drain), backed by the database's
// LRU statement cache.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the reproduced results. The root package holds only
// the benchmark harness (bench_test.go); the library lives under
// internal/, with internal/core as the serving facade: statements run only
// through Prepare/PrepareCached and Stmt, and the paper's other tools
// (value indexes, schemas, bisimulation, relational and OEM exchange) are
// leaf packages called on db.Graph().
package repro
