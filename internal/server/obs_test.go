package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// checkPromExposition validates Prometheus text-format invariants over a
// scrape: every sample is preceded by its family's # HELP and # TYPE lines,
// histogram buckets are cumulative, and the +Inf bucket equals _count.
func checkPromExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{} // family -> TYPE
	bucketPrev := map[string]float64{}
	infBucket := map[string]float64{}
	countVal := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := typed[f[2]]; dup {
				t.Fatalf("duplicate TYPE line for family %s", f[2])
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] == "histogram" {
				family = base
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("sample %q before its # TYPE line", line)
		}
		if typed[family] == "histogram" {
			// Series identity for the cumulative checks: family plus its
			// labels with le stripped, so each labeled histogram (e.g. one
			// per endpoint) is validated on its own.
			labelPart := ""
			if i := strings.IndexByte(series, '{'); i >= 0 {
				labelPart = strings.TrimSuffix(series[i+1:], "}")
			}
			var kept []string
			for _, l := range strings.Split(labelPart, ",") {
				if l != "" && !strings.HasPrefix(l, "le=") {
					kept = append(kept, l)
				}
			}
			key := family + "{" + strings.Join(kept, ",") + "}"
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if val < bucketPrev[key] {
					t.Fatalf("non-cumulative bucket in %q", line)
				}
				bucketPrev[key] = val
				if strings.Contains(series, `le="+Inf"`) {
					infBucket[key] = val
				}
			case strings.HasSuffix(name, "_count"):
				countVal[key] = val
			}
		}
	}
	for fam, c := range countVal {
		if infBucket[fam] != c {
			t.Fatalf("family %s: +Inf bucket %v != _count %v", fam, infBucket[fam], c)
		}
	}
}

// TestMetricsScrapeMidStream scrapes /metrics while a /query response is
// still streaming and asserts the exposition is valid and covers the
// query, WAL/checkpoint, statement-cache and HTTP families.
func TestMetricsScrapeMidStream(t *testing.T) {
	_, ts, _ := newTestServer(t, 500)

	// Start a query and read just the first row, leaving the stream open.
	const q = `select {Title: T} from DB.Entry.Movie M, M.Title T`
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"query": %q}`, q)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first streamed row: %v", err)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	checkPromExposition(t, body)
	for _, family := range []string{
		"ssd_query_duration_seconds",
		"ssd_query_rows_total",
		"ssd_stmt_cache_hits_total",
		"ssd_checkpoint_duration_seconds",
		"ssd_wal_bytes",
		"ssd_http_requests_total",
		`ssd_http_in_flight{endpoint="query"}`,
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("scrape missing %s:\n%s", family, body)
		}
	}

	// Drain the rest of the stream; it must still terminate cleanly.
	if _, err := io.Copy(io.Discard, br); err != nil {
		t.Fatal(err)
	}

	// JSON encoding serves the same snapshot.
	jresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var js struct {
		Metrics []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	if len(js.Metrics) == 0 {
		t.Fatal("JSON snapshot has no metrics")
	}
}

// TestQueryTrace: ?trace=1 appends the operator trace to the terminal
// status line, with per-atom row counts and timings.
func TestQueryTrace(t *testing.T) {
	_, ts, _ := newTestServer(t, 200)
	const q = `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`
	body := fmt.Sprintf(`{"query": %q, "params": {"who": "\"Allen\""}}`, q)

	resp, err := http.Post(ts.URL+"/query?trace=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rows, status := decodeStream(t, resp.Body)
	if status.Error != "" || !status.Done {
		t.Fatalf("status = %+v", status)
	}
	tr := status.Trace
	if tr == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	if tr.Lang != "query" {
		t.Fatalf("trace lang = %q", tr.Lang)
	}
	if tr.Rows != int64(len(rows)) {
		t.Fatalf("trace rows = %d, streamed %d", tr.Rows, len(rows))
	}
	if len(tr.Atoms) == 0 {
		t.Fatal("trace has no atom spans")
	}
	var atomRows int64
	for _, a := range tr.Atoms {
		if a.Op == "" {
			t.Fatalf("atom with empty op: %+v", a)
		}
		atomRows += a.Rows
	}
	if atomRows == 0 {
		t.Fatalf("all atom row counts zero: %+v", tr.Atoms)
	}

	// The second run hits the statement cache and the plan pool.
	resp2, err := http.Post(ts.URL+"/query?trace=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	_, status2 := decodeStream(t, resp2.Body)
	if status2.Trace == nil || !status2.Trace.PlanPooled {
		t.Fatalf("second run should report a pooled plan: %+v", status2.Trace)
	}

	// Without ?trace=1 the status line stays trace-free.
	_, plain := postQuery(t, ts.URL, body)
	if plain.Trace != nil {
		t.Fatalf("untraced run leaked a trace: %+v", plain.Trace)
	}
}

// TestSlowQueryLog: with a threshold of 1ns every query is slow, and the
// structured log line carries the query text, row count and trace.
func TestSlowQueryLog(t *testing.T) {
	db := core.FromGraph(workload.Movies(workload.DefaultMovieConfig(100)))
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	srv := New(db, Config{SlowQuery: time.Nanosecond, Logger: logger})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const q = `select {Title: T} from DB.Entry.Movie M, M.Title T`
	_, status := postQuery(t, ts.URL, fmt.Sprintf(`{"query": %q}`, q))
	if status.Error != "" || !status.Done {
		t.Fatalf("status = %+v", status)
	}
	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query log line:\n%s", out)
	}
	for _, want := range []string{"DB.Entry.Movie", "rows=", "trace=", "atoms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("slow-query line missing %q:\n%s", want, out)
		}
	}
	// Without ?trace=1 the client response still has no trace attached.
	if status.Trace != nil {
		t.Fatalf("slow-query logging leaked the trace to the client: %+v", status.Trace)
	}
}

// TestHealthzObservability: /healthz reports the statement-cache size and
// snapshot sequence alongside the durability stats.
func TestHealthzObservability(t *testing.T) {
	_, ts, db := newTestServer(t, 50)
	if _, err := db.PrepareCached(`select {T: T} from DB.Entry.Movie M, M.Title T`); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	sz, ok := h["stmt_cache_size"].(float64)
	if !ok || sz < 1 {
		t.Fatalf("stmt_cache_size = %v", h["stmt_cache_size"])
	}
	if _, ok := h["snapshot_seq"].(float64); !ok {
		t.Fatalf("snapshot_seq = %v", h["snapshot_seq"])
	}
}
