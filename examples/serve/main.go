// Serve: run the ssdserve HTTP layer in-process over a generated movie
// database and drive it the way a remote client would — parameterized
// NDJSON query streams, a mutation script commit, a health check, a traced
// query, a slow-query log line and a /metrics scrape.
// Every request prints the equivalent curl command against a standalone
// server (`go run ./cmd/ssdserve -demo 2000`).
//
//	go run ./examples/serve
package main

import (
	"bufio"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	// An ssdserve instance is a Server over one core.Database; the demo
	// database is the scalable movie workload. The 1ns slow-query threshold makes every query "slow" so the structured log
	// line is demonstrable; real deployments set something like 100ms.
	db := core.FromGraph(workload.Movies(workload.DefaultMovieConfig(2000)))
	srv := server.New(db, server.Config{
		SlowQuery: 1, // nanosecond: log every query, for the demo
		Logger:    slog.New(slog.NewTextHandler(os.Stdout, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Println("serving", db.Describe())

	// 1. A parameterized query, streamed as NDJSON. String parameters use
	// the ssdq literal syntax: "\"Allen\"" is the *string* Allen (a bare
	// "Allen" would be the symbol).
	// render=tree serializes node columns as their subtrees in the text
	// syntax (the default is opaque node ids, for clients that page
	// through bindings).
	body := `{
	  "query": "select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who",
	  "params": {"who": "\"Allen\""},
	  "limit": 5,
	  "render": "tree"
	}`
	curl(ts.URL, "/query", body)
	post(ts.URL+"/query", body)

	// 2. A write: the ssdq mutation script format, committed as one batch.
	// Readers already streaming keep their MVCC snapshot; the next query
	// sees the new edge.
	script := "addnode\naddedge 0 ServedBy $0\naddedge $0 \"examples/serve\" $0\n"
	fmt.Printf("\n$ curl -s %s/mutate --data-binary '...script...'\n", "localhost:8080")
	post(ts.URL+"/mutate", script)
	curl(ts.URL, "/query", `{"query": "path: ServedBy._"}`)
	post(ts.URL+"/query", `{"query": "path: ServedBy._"}`)

	// 3. Health: snapshot stats for load balancers and dashboards, now
	// including the statement-cache size and snapshot sequence.
	fmt.Printf("\n$ curl -s localhost:8080/healthz\n")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	printBody(resp)

	// 4. Tracing: ?trace=1 appends the per-operator execution trace to the
	// terminal status line — per-atom row counts and wall time, and whether
	// the plan came from the pool. The same trace rides the slow-query log lines above.
	fmt.Printf("\n$ curl -s 'localhost:8080/query?trace=1' -d '{\"query\": \"path: ServedBy._\"}'\n")
	post(ts.URL+"/query?trace=1", `{"query": "path: ServedBy._"}`)

	// 5. Metrics: the process registry in the Prometheus text exposition
	// (a scrape endpoint; ?format=json serves the same snapshot as JSON).
	// Shown here filtered to a few families.
	fmt.Printf("\n$ curl -s localhost:8080/metrics | grep -E 'ssd_(queries|query_rows|stmt_cache|http_requests)'\n")
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		log.Fatalf("GET /metrics: %s", mresp.Status)
	}
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, fam := range []string{"ssd_queries_total", "ssd_query_rows_total", "ssd_stmt_cache", "ssd_http_requests_total"} {
			if strings.HasPrefix(line, fam) || strings.HasPrefix(line, "# TYPE "+fam) {
				fmt.Println(line)
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

// curl prints the standalone-server equivalent of the request.
func curl(base, path, body string) {
	oneLine := strings.Join(strings.Fields(body), " ")
	fmt.Printf("\n$ curl -s localhost:8080%s -d '%s'\n", path, oneLine)
}

func post(url, body string) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	printBody(resp)
}

func printBody(resp *http.Response) {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		// The demo endpoints answer errors with a JSON body and a non-2xx
		// status; treating those lines as output would hide the failure.
		log.Fatalf("%s %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fmt.Println(sc.Text())
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}
