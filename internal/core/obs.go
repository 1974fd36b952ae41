package core

// Process-wide metrics for the engine layers this package owns: query
// execution (latency, rows, errors), the per-statement plan pool, the LRU
// statement cache, and the durability path (commits, checkpoints,
// recovery). All register on obs.Default at init; the serving layer
// exposes that registry at /metrics.

import "repro/internal/obs"

var (
	obsQueryDur = obs.Default.Histogram("ssd_query_duration_seconds",
		"Statement execution latency, open to Rows.Close (Exec end to end).")
	obsQueries = obs.Default.Counter("ssd_queries_total",
		"Statement executions completed (all languages, Query and Exec).")
	obsQueryRows = obs.Default.Counter("ssd_query_rows_total",
		"Result rows streamed to statement consumers.")
	obsQueryErrors = obs.Default.Counter("ssd_query_errors_total",
		"Statement executions that terminated with an error.")

	obsPlansPooled = obs.Default.Counter("ssd_plans_pooled_total",
		"Plan checkouts served from a statement's per-snapshot pool.")
	obsPlansBuilt = obs.Default.Counter("ssd_plans_built_total",
		"Plan checkouts that compiled a fresh plan.")

	obsStmtHits = obs.Default.Counter("ssd_stmt_cache_hits_total",
		"PrepareCached lookups served from the statement LRU.")
	obsStmtMisses = obs.Default.Counter("ssd_stmt_cache_misses_total",
		"PrepareCached lookups that parsed the statement fresh.")
	obsStmtEvictions = obs.Default.Counter("ssd_stmt_cache_evictions_total",
		"Statements evicted from the LRU to make room.")

	obsCommitDur = obs.Default.Histogram("ssd_commit_duration_seconds",
		"Write-batch commit latency: validation, WAL append, snapshot publish.")
	obsCommits = obs.Default.Counter("ssd_commits_total",
		"Write batches committed.")

	obsCkptDur = obs.Default.Histogram("ssd_checkpoint_duration_seconds",
		"Checkpoint latency: snapshot encode, fsync, WAL truncation.")
	obsCkpts = obs.Default.Counter("ssd_checkpoints_total",
		"Checkpoints completed (no-op skips excluded).")
	obsCkptGen = obs.Default.Gauge("ssd_checkpoint_generation",
		"Sequence number of the snapshot most recently checkpointed.")

	obsRecoveryReplayed = obs.Default.Gauge("ssd_recovery_replayed_batches",
		"WAL batches replayed by the most recent OpenPath recovery.")
	obsRecoverySkipped = obs.Default.Gauge("ssd_recovery_skipped_batches",
		"WAL batches skipped as pre-snapshot by the most recent recovery.")
)
