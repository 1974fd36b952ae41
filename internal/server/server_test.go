package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func newTestServer(t *testing.T, entries int) (*Server, *httptest.Server, *core.Database) {
	t.Helper()
	db := core.FromGraph(workload.Movies(workload.DefaultMovieConfig(entries)))
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, db
}

// postQuery runs one /query request and returns the row lines and the
// terminal status line.
func postQuery(t *testing.T, url string, body string) ([]map[string]string, statusLine) {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return decodeStream(t, resp.Body)
}

func decodeStream(t *testing.T, r io.Reader) ([]map[string]string, statusLine) {
	t.Helper()
	var rows []map[string]string
	var status statusLine
	terminal := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if terminal {
			t.Fatalf("line after terminal status: %s", sc.Text())
		}
		var line struct {
			Row map[string]string `json:"row"`
			statusLine
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Row != nil {
			rows = append(rows, line.Row)
			continue
		}
		status = line.statusLine
		terminal = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !terminal {
		t.Fatal("stream ended without a terminal status line")
	}
	return rows, status
}

// TestQueryEndpoint: a parameterized query streams the same rows the
// statement layer yields directly, and the terminal line reports success.
func TestQueryEndpoint(t *testing.T) {
	_, ts, db := newTestServer(t, 200)
	const q = `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`
	rows, status := postQuery(t, ts.URL, fmt.Sprintf(`{"query": %q, "params": {"who": "\"Allen\""}}`, q))
	if status.Error != "" || !status.Done {
		t.Fatalf("status = %+v", status)
	}
	if status.Rows != len(rows) || len(rows) == 0 {
		t.Fatalf("rows = %d, status.rows = %d", len(rows), status.Rows)
	}

	// Cross-check against the statement layer.
	s, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.Query(context.Background(), core.P("who", "Allen"))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	i := 0
	cols := direct.Columns()
	for direct.Next() {
		dests := make([]any, len(cols))
		vals := make([]string, len(cols))
		for j := range dests {
			dests[j] = &vals[j]
		}
		if err := direct.Scan(dests...); err != nil {
			t.Fatal(err)
		}
		for j, c := range cols {
			if rows[i][c] != vals[j] {
				t.Fatalf("row %d col %s: %q != %q", i, c, rows[i][c], vals[j])
			}
		}
		i++
	}
	if i != len(rows) {
		t.Fatalf("served %d rows, direct %d", len(rows), i)
	}
}

// TestQueryParamTypes exercises every JSON-to-label conversion.
func TestQueryParamTypes(t *testing.T) {
	_, ts, _ := newTestServer(t, 50)
	// Symbol parameter in a path step.
	rows, status := postQuery(t, ts.URL,
		`{"query": "select T from DB.Entry.$kind.Title T", "params": {"kind": "Movie"}}`)
	if status.Error != "" || len(rows) == 0 {
		t.Fatalf("symbol param: %+v, %d rows", status, len(rows))
	}
	// Integer parameter in a comparison.
	_, status = postQuery(t, ts.URL,
		`{"query": "select {Big: X} from DB._*.isint X where X > $n", "params": {"n": 65536}}`)
	if status.Error != "" {
		t.Fatalf("int param: %+v", status)
	}
	// Unknown parameter is a 400-style error.
	_, status = postQuery(t, ts.URL,
		`{"query": "select T from DB.Entry.Movie.Title T", "params": {"bogus": 1}}`)
	if status.Error == "" {
		t.Fatal("unknown parameter accepted")
	}
}

// TestQueryLanguages: path and datalog statements serve through the same
// endpoint; transforms are refused.
func TestQueryLanguages(t *testing.T) {
	_, ts, _ := newTestServer(t, 50)
	rows, status := postQuery(t, ts.URL, `{"query": "path: Entry.Movie.Title._"}`)
	if status.Error != "" || len(rows) == 0 {
		t.Fatalf("path: %+v, %d rows", status, len(rows))
	}
	rows, status = postQuery(t, ts.URL, `{"query": "datalog: reach(X) :- root(X). reach(Y) :- reach(X), edge(X, _, Y)."}`)
	if status.Error != "" || len(rows) == 0 {
		t.Fatalf("datalog: %+v, %d rows", status, len(rows))
	}
	_, status = postQuery(t, ts.URL, `{"query": "unql: delete \"Allen\""}`)
	if status.Error == "" {
		t.Fatal("transform statement served")
	}
}

// TestQueryRenderTree: render=tree serializes node columns as their
// subtree in the text syntax instead of opaque ids.
func TestQueryRenderTree(t *testing.T) {
	_, ts, _ := newTestServer(t, 50)
	rows, status := postQuery(t, ts.URL,
		`{"query": "select T from DB.Entry.Movie.Title T", "render": "tree", "limit": 3}`)
	if status.Error != "" || len(rows) != 3 {
		t.Fatalf("render=tree: %+v, %d rows", status, len(rows))
	}
	for _, r := range rows {
		if !strings.Contains(r["T"], `"`) {
			t.Fatalf("tree rendering looks like a node id: %q", r["T"])
		}
	}
}

// TestQueryLimit: a row limit truncates the stream and says so.
func TestQueryLimit(t *testing.T) {
	_, ts, _ := newTestServer(t, 200)
	rows, status := postQuery(t, ts.URL, `{"query": "select T from DB.Entry.Movie.Title T", "limit": 5}`)
	if len(rows) != 5 || !status.Truncated || status.Error != "" {
		t.Fatalf("limit: %d rows, %+v", len(rows), status)
	}
}

// TestQueryTimeout: a request whose deadline expires mid-stream reports the
// context error in its terminal line instead of posing as complete.
func TestQueryTimeout(t *testing.T) {
	_, ts, _ := newTestServer(t, 5000)
	_, status := postQuery(t, ts.URL,
		`{"query": "select {T: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A, M.References.Movie.Title T2", "timeout_ms": 1}`)
	if status.Done || status.Error == "" {
		t.Fatalf("timeout not reported: %+v", status)
	}
	if !strings.Contains(status.Error, "deadline") {
		t.Errorf("error %q does not name the deadline", status.Error)
	}
}

// TestMutateAndHealthz: a mutation script commits through the server and is
// visible to subsequent queries; healthz reflects the new snapshot.
func TestMutateAndHealthz(t *testing.T) {
	_, ts, db := newTestServer(t, 50)
	before := db.Graph().ComputeStats()
	resp, err := http.Post(ts.URL+"/mutate", "text/plain",
		strings.NewReader("addnode\naddnode\naddedge 0 ServedTag $0\naddedge $0 \"hello\" $1\n"))
	if err != nil {
		t.Fatal(err)
	}
	var mr mutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !mr.Applied || mr.Nodes != before.Nodes+2 || mr.Edges != before.Edges+2 {
		t.Fatalf("mutate response %+v (before %+v)", mr, before)
	}
	rows, status := postQuery(t, ts.URL, `{"query": "select X from DB.ServedTag X"}`)
	if status.Error != "" || len(rows) != 1 {
		t.Fatalf("mutated edge not served: %+v, %d rows", status, len(rows))
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || int(health["nodes"].(float64)) != before.Nodes+2 ||
		int(health["edges"].(float64)) != before.Edges+2 {
		t.Fatalf("healthz %+v", health)
	}
}

// TestOversizedBodyRefused: a body past the 1 MiB bound is refused whole with
// 413. The script here is valid line by line, so a prefix cut at the bound
// would parse — and commit — if the handler truncated instead of refusing.
func TestOversizedBodyRefused(t *testing.T) {
	_, ts, db := newTestServer(t, 20)
	seq, nodes := db.CommitSeq(), db.Graph().NumNodes()
	script := strings.Repeat("addnode\n", maxBody/len("addnode\n")+1)
	for path, body := range map[string]string{
		"/mutate": script,
		"/query":  `{"query":"select X from DB.Entry X","pad":"` + strings.Repeat("x", maxBody) + `"}`,
	} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", path, len(body), resp.StatusCode)
		}
	}
	if db.CommitSeq() != seq || db.Graph().NumNodes() != nodes {
		t.Errorf("oversized script committed: seq %d → %d, nodes %d → %d", seq, db.CommitSeq(), nodes, db.Graph().NumNodes())
	}
	postMutate(t, ts.URL, script[:maxBody/2]) // under the bound the same script is fine
	if db.CommitSeq() != seq+1 {
		t.Errorf("in-bound script: seq %d, want %d", db.CommitSeq(), seq+1)
	}
}

// TestConcurrentQueriesDuringCommits is the serving-layer -race acceptance
// test: concurrent parameterized queries stream while a writer commits
// batches through /mutate. Every response must be internally consistent
// (terminal line matches row count, no mid-stream errors).
func TestConcurrentQueriesDuringCommits(t *testing.T) {
	// A durable directory, as in production: logging on the write path must
	// not perturb the readers' pinned snapshots.
	dir := t.TempDir()
	if err := core.FromGraph(workload.Movies(workload.DefaultMovieConfig(300))).SavePath(dir); err != nil {
		t.Fatal(err)
	}
	db, err := core.OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	ts := httptest.NewServer(New(db, Config{}).Handler())
	defer ts.Close()
	const (
		readers = 6
		rounds  = 8
		commits = 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers*rounds+commits)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			script := fmt.Sprintf("addnode\naddedge 0 CommitTag $0\naddedge $0 %d $0\n", i)
			resp, err := http.Post(ts.URL+"/mutate", "text/plain", strings.NewReader(script))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("mutate status %d", resp.StatusCode)
				return
			}
		}
	}()
	body := `{"query": "select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who", "params": {"who": "\"Allen\""}}`
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				lines := strings.Split(strings.TrimSpace(string(data)), "\n")
				var status statusLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &status); err != nil {
					errs <- fmt.Errorf("bad terminal line %q: %v", lines[len(lines)-1], err)
					return
				}
				if status.Error != "" || !status.Done || status.Rows != len(lines)-1 {
					errs <- fmt.Errorf("inconsistent response: %+v with %d rows", status, len(lines)-1)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCancelledRequestStopsCursor: a client that disconnects mid-stream
// releases its cursor — observed through Shutdown draining immediately
// afterwards, which only returns once in-flight handlers (and the cursors
// they hold) are gone.
func TestCancelledRequestStopsCursor(t *testing.T) {
	srv, ts, _ := newTestServer(t, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	body := `{"query": "select {T: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A, M.References.Movie.Title T2"}`
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a little, then abandon the stream.
	buf := make([]byte, 256)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatalf("no leading rows: %v", err)
	}
	cancel()
	resp.Body.Close()

	drainCtx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		t.Fatalf("cursor not released after client cancel: %v", err)
	}
	// Draining servers refuse new work.
	r2, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query": "path: Entry"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d", r2.StatusCode)
	}
}
