// Command ssdserve serves a semistructured database over HTTP/JSON: the
// network front door to the query engine.
//
// Usage:
//
//	ssdserve -data dbdir                      # durable: snapshots + WAL in dbdir
//	ssdserve -data dbdir -demo 5000           # seed a fresh dbdir, then serve it
//	ssdserve -db movie.ssdg [-addr :8080]     # volatile
//	ssdserve -demo 5000                       # serve a generated movie DB (volatile)
//	ssdserve -data repdir -follow http://leader:8080   # read-only follower replica
//
// Endpoints (see internal/server):
//
//	POST /query      {"query": "...", "params": {...}, "timeout_ms": 1000}
//	                 → NDJSON rows, one {"row": {...}} per line, terminated
//	                 by {"done": true, "rows": N} or {"error": "..."}
//	POST /mutate     mutation script (ssdq format) → one committed batch
//	POST /checkpoint force a durable checkpoint now (with -data)
//	GET  /healthz    liveness + snapshot stats + WAL size + stmt cache
//	GET  /metrics    process metrics (Prometheus text; ?format=json)
//
// Append ?trace=1 to /query to get the per-operator execution trace on the
// terminal status line. -slow-query logs any slower request with its trace;
// -debug-addr serves net/http/pprof and expvar on a separate listener.
//
// Example:
//
//	curl -s localhost:8080/query -d '{
//	  "query": "select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who",
//	  "params": {"who": "\"Allen\""}
//	}'
//
// With -data the database lives in a durable directory (core.OpenPath):
// every /mutate commit is WAL-logged, and a background checkpointer folds
// the log into a new snapshot generation every -checkpoint-interval or as
// soon as the log exceeds -checkpoint-max-wal bytes, whichever comes
// first — so a restart replays only the short WAL tail. Checkpoints run
// against a pinned MVCC snapshot: queries and mutations keep flowing while
// one is written. Seeding: if dbdir is empty and -db/-text/-demo names a
// source, the source becomes generation 1; once initialized, the directory
// itself is the single source of truth and the seed flags are rejected.
//
// With -follow the process runs as a read-only replica of another ssdserve:
// an uninitialized -data directory bootstraps itself from the leader's
// newest snapshot, then the follower applies the leader's committed WAL
// frames live (streamed over GET /replicate/wal), maintaining its own WAL,
// checkpoints and indexes. /query works (including X-SSD-Seq read-your-
// writes tokens — a tokened read waits for the replica to catch up or
// returns 503); /mutate and /checkpoint return 403 pointing at the leader.
// Any durable ssdserve is a leader: the /replicate endpoints are always on.
//
// SIGINT/SIGTERM triggers graceful shutdown: new requests get 503, the
// process exits once every in-flight cursor drains (bounded by -grace),
// and with -data a final checkpoint bounds the next start's replay.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/workload"
)

// buildLogger maps the -log-level flag to a text slog.Logger on stderr.
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// serveDebug exposes net/http/pprof and expvar on their own address, kept
// off the main mux so profiling endpoints are never reachable through the
// public listener.
func serveDebug(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	logger.Info("debug server listening", "addr", addr)
	if err := server.NewHTTPServer(addr, mux).ListenAndServe(); err != nil {
		logger.Error("debug server failed", "err", err)
	}
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		dataDir      = flag.String("data", "", "durable database directory (snapshots + WAL); seeds from -db/-text/-demo when empty")
		dbPath       = flag.String("db", "", "database file (storage binary format)")
		text         = flag.String("text", "", "database file in the text syntax (alternative to -db)")
		demo         = flag.Int("demo", 0, "serve a generated movie database with this many entries instead of a file")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-request timeout (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 5*time.Minute, "cap on per-request timeout_ms (0 = uncapped)")
		maxRows      = flag.Int("max-rows", 0, "cap on rows streamed per request (0 = unlimited)")
		grace        = flag.Duration("grace", 30*time.Second, "shutdown drain deadline")
		ckptInterval = flag.Duration("checkpoint-interval", 5*time.Minute, "with -data: background checkpoint timer (0 = off)")
		ckptMaxWAL   = flag.Int64("checkpoint-max-wal", 64<<20, "with -data: checkpoint when the WAL exceeds this many bytes (0 = off)")
		logLevel     = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		slowQuery    = flag.Duration("slow-query", 0, "log queries at or over this latency, with their trace (0 = off)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060); empty = off")
		poolBytes    = flag.Int64("pool-bytes", 0, "with -data: serve reads through an on-disk page file with a buffer pool of this many bytes (0 = all in memory)")
		follow       = flag.String("follow", "", "run as a read-only follower replicating from this leader base URL (requires -data)")
		replWait     = flag.Duration("repl-wait", server.DefaultReplWait, "how long a tokened read (X-SSD-Seq) waits for the replica to catch up before 503")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel)
	if err != nil {
		log.Fatalf("ssdserve: %v", err)
	}

	if *follow != "" {
		if *dataDir == "" {
			log.Fatalf("ssdserve: -follow requires -data: the replica needs a durable directory to bootstrap into")
		}
		if *dbPath != "" || *text != "" || *demo > 0 {
			log.Fatalf("ssdserve: -follow conflicts with -db/-text/-demo: a follower's state comes from its leader")
		}
		// First start of a fresh replica: seed the directory from the
		// leader's newest snapshot. An initialized directory resumes from
		// its own durable position instead.
		if err := server.BootstrapFollower(context.Background(), nil, *follow, *dataDir); err != nil {
			log.Fatalf("ssdserve: bootstrapping from %s: %v", *follow, err)
		}
	}

	db, err := openServeDatabase(*dataDir, *dbPath, *text, *demo, *poolBytes)
	if err != nil {
		log.Fatalf("ssdserve: %v", err)
	}
	defer db.CloseWAL()

	cfg := server.Config{
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxRows:        *maxRows,
		Logger:         logger,
		SlowQuery:      *slowQuery,
		ReplWait:       *replWait,
	}
	if db.Durable() {
		cfg.CheckpointInterval = *ckptInterval
		cfg.CheckpointMaxWAL = *ckptMaxWAL
		cfg.Role = "leader"
	} else {
		cfg.Role = "single"
	}
	var follower *server.Follower
	followCtx, stopFollower := context.WithCancel(context.Background())
	defer stopFollower()
	if *follow != "" {
		follower = server.NewFollower(db, *follow, logger)
		cfg.ReadOnly = true
		cfg.Role = "follower"
		cfg.LeaderURL = *follow
		cfg.Follower = follower
	}
	srv := server.New(db, cfg)
	if follower != nil {
		go follower.Run(followCtx)
	}
	httpSrv := server.NewHTTPServer(*addr, srv.Handler())

	if *debugAddr != "" {
		go serveDebug(*debugAddr, logger)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("ssdserve: shutting down (grace %s)", *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		// Stop replicating first so the final checkpoint folds a position
		// that will not advance again, then drain cursors, then close
		// connections.
		stopFollower()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("ssdserve: drain: %v", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("ssdserve: http shutdown: %v", err)
		}
		if db.Durable() {
			// Fold the WAL tail into a final generation so the next start
			// replays (nearly) nothing.
			if info, err := db.Checkpoint(); err != nil {
				log.Printf("ssdserve: final checkpoint: %v", err)
			} else {
				log.Printf("ssdserve: final checkpoint: generation %d (%d batches folded)",
					info.Seq, info.Truncated)
			}
		}
	}()

	log.Printf("ssdserve: serving %s on %s", db.Describe(), *addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("ssdserve: %v", err)
	}
	<-done
}

// openServeDatabase resolves the flag combinations to one database. With
// -data, the directory is authoritative: a fresh one may be seeded from
// -db/-text/-demo, an initialized one rejects them (serving a file over an
// existing durable history would silently fork it).
func openServeDatabase(dataDir, dbPath, text string, demo int, poolBytes int64) (*core.Database, error) {
	if dataDir == "" {
		if poolBytes > 0 {
			return nil, fmt.Errorf("-pool-bytes requires -data: the page file lives in the durable directory")
		}
		return openDatabase(dbPath, text, demo)
	}
	initialized, err := core.PathInitialized(dataDir)
	if err != nil {
		return nil, err
	}
	hasSeed := dbPath != "" || text != "" || demo > 0
	if initialized && hasSeed {
		return nil, fmt.Errorf("-data %s is already initialized; drop -db/-text/-demo", dataDir)
	}
	if !initialized && hasSeed {
		seed, err := openDatabase(dbPath, text, demo)
		if err != nil {
			return nil, err
		}
		if err := seed.SavePath(dataDir); err != nil {
			return nil, err
		}
		log.Printf("ssdserve: seeded %s (%s)", dataDir, seed.Describe())
	}
	db, err := core.OpenPathOptions(dataDir, core.Options{PoolBytes: poolBytes})
	if err != nil {
		return nil, err
	}
	ri := db.LastRecovery()
	log.Printf("ssdserve: recovered %s: generation %d, %d batches skipped, %d replayed",
		dataDir, ri.SnapshotSeq, ri.Skipped, ri.Replayed)
	return db, nil
}

func openDatabase(dbPath, text string, demo int) (*core.Database, error) {
	switch {
	case demo > 0:
		return core.FromGraph(workload.Movies(workload.DefaultMovieConfig(demo))), nil
	case dbPath != "":
		return core.Open(dbPath)
	case text != "":
		src, err := os.ReadFile(text)
		if err != nil {
			return nil, err
		}
		return core.ParseText(string(src))
	default:
		return nil, fmt.Errorf("one of -data, -db, -text or -demo is required")
	}
}
