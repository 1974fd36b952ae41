// Command ssdrouter fronts a replicated ssdserve tier: one leader (the
// single writer) plus any number of read-only follower replicas.
//
// Usage:
//
//	ssdrouter -leader http://127.0.0.1:8080 \
//	          -replicas http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	          [-addr :8079] [-health-interval 1s]
//
// Routing:
//
//	POST /query      → a healthy replica, round-robin; replicas already at
//	                   or past the request's X-SSD-Seq token are preferred,
//	                   and the leader is the fallback when no replica is
//	                   usable. A failed backend is retried on the next.
//	POST /mutate     → the leader only. The response carries the commit's
//	POST /checkpoint   X-SSD-Seq token for read-your-writes.
//	GET  /healthz    → aggregate backend health and replication positions
//	GET  /metrics    → the router's own routing metrics
//
// Consistency is enforced by the backends: a replica behind a read's token
// waits (up to its -repl-wait) or answers 503 with Retry-After, so a stale
// router health view can delay a read but never serve stale data for a
// tokened request.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/server"
)

func main() {
	var (
		addr           = flag.String("addr", ":8079", "listen address")
		leader         = flag.String("leader", "", "leader base URL (required), e.g. http://127.0.0.1:8080")
		replicas       = flag.String("replicas", "", "comma-separated follower base URLs")
		healthInterval = flag.Duration("health-interval", server.DefaultHealthInterval, "backend health poll period")
		logLevel       = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
	)
	flag.Parse()
	if *leader == "" {
		log.Fatalf("ssdrouter: -leader is required")
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(strings.ToUpper(*logLevel))); err != nil {
		log.Fatalf("ssdrouter: bad -log-level %q: %v", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))

	var reps []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			reps = append(reps, strings.TrimRight(r, "/"))
		}
	}
	rt := server.NewRouter(server.RouterConfig{
		Leader:         strings.TrimRight(*leader, "/"),
		Replicas:       reps,
		HealthInterval: *healthInterval,
		Logger:         logger,
	})
	defer rt.Stop()
	httpSrv := server.NewHTTPServer(*addr, rt.Handler())

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("ssdrouter: shutting down")
		httpSrv.Close()
	}()

	log.Printf("ssdrouter: routing %s on %s (leader %s, %d replicas)",
		fmt.Sprintf("%d backends", 1+len(reps)), *addr, *leader, len(reps))
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("ssdrouter: %v", err)
	}
}
