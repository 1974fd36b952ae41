package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// replNode is one in-process member of a replicated serving tier.
type replNode struct {
	db  *core.Database
	srv *Server
	ts  *httptest.Server
	fol *Follower
	// stop cancels the follower's Run loop (nil for leaders).
	stop context.CancelFunc
}

func (n *replNode) URL() string { return n.ts.URL }

// close tears the node down in dependency order: replication loop, HTTP
// front, then the database handle (so the directory can be reopened).
func (n *replNode) close(t *testing.T) {
	t.Helper()
	if n.stop != nil {
		n.stop()
	}
	n.ts.Close()
	if err := n.db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// startLeader opens dir as a durable leader with the /replicate endpoints.
func startLeader(t *testing.T, dir string) *replNode {
	t.Helper()
	db, err := core.OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{Role: "leader"})
	ts := httptest.NewServer(srv.Handler())
	return &replNode{db: db, srv: srv, ts: ts}
}

// startFollower bootstraps (or resumes) dir as a read-only follower of
// leaderURL and starts its replication loop. replWait bounds tokened reads.
func startFollower(t *testing.T, dir, leaderURL string, replWait time.Duration) *replNode {
	t.Helper()
	if err := BootstrapFollower(context.Background(), nil, leaderURL, dir); err != nil {
		t.Fatal(err)
	}
	db, err := core.OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	fol := NewFollower(db, leaderURL, nil)
	srv := New(db, Config{
		ReadOnly:  true,
		Role:      "follower",
		LeaderURL: leaderURL,
		ReplWait:  replWait,
		Follower:  fol,
	})
	ts := httptest.NewServer(srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	go fol.Run(ctx)
	return &replNode{db: db, srv: srv, ts: ts, fol: fol, stop: cancel}
}

// mutateNode posts one script to the node and returns the commit's
// X-SSD-Seq token.
func mutateNode(t *testing.T, url, script string) uint64 {
	t.Helper()
	resp, err := http.Post(url+"/mutate", "text/plain", strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %s", resp.Status)
	}
	var mr mutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if hdr := resp.Header.Get(seqHeader); hdr != fmt.Sprint(mr.Seq) {
		t.Fatalf("mutate %s header %q != body seq %d", seqHeader, hdr, mr.Seq)
	}
	return mr.Seq
}

// waitForSeq fails the test unless the node reaches seq within 10s.
func waitForSeq(t *testing.T, n *replNode, seq uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.db.WaitForSeq(ctx, seq); err != nil {
		t.Fatalf("node never reached seq %d (at %d): %v", seq, n.db.CommitSeq(), err)
	}
}

// tokenedQuery posts a /query carrying an X-SSD-Seq token and returns the
// raw response (the caller closes the body).
func tokenedQuery(t *testing.T, url, body string, token uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token > 0 {
		req.Header.Set(seqHeader, fmt.Sprint(token))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

const chainQuery = `{"query": "select {N: N} from DB.n N"}`

// chainScript adds one leaf under the root: an n-labeled edge to a new node
// carrying a distinctly-labeled leaf edge.
func chainScript(i int) string {
	return fmt.Sprintf("addnode; addedge 0 n $0; addnode; addedge $0 v%d $1", i)
}

// queryRows collects the /query row lines from url (no token).
func queryRows(t *testing.T, url string) []map[string]string {
	t.Helper()
	resp := tokenedQuery(t, url, chainQuery, 0)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %s", resp.Status)
	}
	rows, status := decodeStream(t, resp.Body)
	if status.Error != "" || !status.Done {
		t.Fatalf("query status = %+v", status)
	}
	return rows
}

// TestReplicationConvergence is the tentpole end to end in-process: a leader
// and two followers, live WAL shipping, and /query answers that are
// byte-identical across all three at the same position.
func TestReplicationConvergence(t *testing.T) {
	leader := startLeader(t, t.TempDir())
	defer leader.close(t)
	f1 := startFollower(t, t.TempDir(), leader.URL(), DefaultReplWait)
	defer f1.close(t)
	f2 := startFollower(t, t.TempDir(), leader.URL(), DefaultReplWait)
	defer f2.close(t)

	var seq uint64
	for i := 0; i < 8; i++ {
		seq = mutateNode(t, leader.URL(), chainScript(i))
	}
	if seq != 8 {
		t.Fatalf("leader at seq %d after 8 commits", seq)
	}
	waitForSeq(t, f1, seq)
	waitForSeq(t, f2, seq)

	want, err := json.Marshal(queryRows(t, leader.URL()))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []*replNode{f1, f2} {
		got, err := json.Marshal(queryRows(t, n.URL()))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("follower %d rows differ from leader:\nleader   %s\nfollower %s", i+1, want, got)
		}
	}

	// /healthz reports the replication topology.
	var h struct {
		Role       string `json:"role"`
		ReadOnly   bool   `json:"read_only"`
		CommitSeq  uint64 `json:"commit_seq"`
		ReplLeader string `json:"repl_leader"`
		Bootstraps uint64 `json:"repl_bootstraps"`
	}
	resp, err := http.Get(f1.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Role != "follower" || !h.ReadOnly || h.CommitSeq != seq || h.ReplLeader != leader.URL() {
		t.Fatalf("follower healthz = %+v", h)
	}
	if h.Bootstraps != 0 {
		t.Fatalf("live follower bootstrapped %d times; streaming should have sufficed", h.Bootstraps)
	}
}

// TestFollowerRejectsWrites: mutations and checkpoints on a replica answer
// 403 naming the leader — never a silent local fork.
func TestFollowerRejectsWrites(t *testing.T) {
	leader := startLeader(t, t.TempDir())
	defer leader.close(t)
	mutateNode(t, leader.URL(), chainScript(0))
	f := startFollower(t, t.TempDir(), leader.URL(), DefaultReplWait)
	defer f.close(t)

	for _, ep := range []string{"/mutate", "/checkpoint"} {
		resp, err := http.Post(f.URL()+ep, "text/plain", strings.NewReader(chainScript(9)))
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 512)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s on follower: %s, want 403", ep, resp.Status)
		}
		if !strings.Contains(string(body[:n]), leader.URL()) {
			t.Fatalf("%s rejection does not name the leader: %s", ep, body[:n])
		}
	}
}

// TestReadYourWrites covers the token protocol: an untokened read reports
// its position, a token at the replica's position serves immediately, a
// token one ahead holds the read until the commit arrives, and a token the
// replica cannot reach times out as 503 + Retry-After — never stale data.
func TestReadYourWrites(t *testing.T) {
	leader := startLeader(t, t.TempDir())
	defer leader.close(t)
	f := startFollower(t, t.TempDir(), leader.URL(), 300*time.Millisecond)
	defer f.close(t)

	seq := mutateNode(t, leader.URL(), chainScript(0))
	waitForSeq(t, f, seq)

	// Served reads carry the position they saw.
	resp := tokenedQuery(t, f.URL(), chainQuery, seq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tokened read at position: %s", resp.Status)
	}
	if got := resp.Header.Get(seqHeader); got != fmt.Sprint(seq) {
		t.Fatalf("response %s = %q, want %d", seqHeader, got, seq)
	}
	resp.Body.Close()

	// A token one past the replica's position parks until the write lands.
	type result struct {
		code int
		err  error
	}
	parked := make(chan result, 1)
	go func() {
		r := tokenedQuery(t, f.URL(), chainQuery, seq+1)
		defer r.Body.Close()
		parked <- result{code: r.StatusCode}
	}()
	time.Sleep(30 * time.Millisecond) // let the read park on the follower
	mutateNode(t, leader.URL(), chainScript(1))
	select {
	case r := <-parked:
		if r.code != http.StatusOK {
			t.Fatalf("parked read finished %d, want 200 after the write replicated", r.code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked read never released")
	}

	// A token ahead of everything: wait, then 503 + Retry-After.
	start := time.Now()
	resp = tokenedQuery(t, f.URL(), chainQuery, seq+1000)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unreachable token: %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After")
	}
	if waited := time.Since(start); waited < 200*time.Millisecond {
		t.Fatalf("rejected after only %v; must wait out ReplWait before 503", waited)
	}

	// Malformed token: 400, not a silent untokened read.
	resp2 := tokenedQuery(t, f.URL(), chainQuery, 0)
	resp2.Body.Close()
	req, _ := http.NewRequest(http.MethodPost, f.URL()+"/query", strings.NewReader(chainQuery))
	req.Header.Set(seqHeader, "not-a-number")
	bad, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed token: %s, want 400", bad.Status)
	}
}

// TestFollowerCatchUpAfterRestart: a follower killed mid-stream restarts
// from its local checkpointed state and catches up over the WAL stream
// alone — no snapshot re-download.
func TestFollowerCatchUpAfterRestart(t *testing.T) {
	leader := startLeader(t, t.TempDir())
	defer leader.close(t)
	folDir := t.TempDir()

	f := startFollower(t, folDir, leader.URL(), DefaultReplWait)
	var seq uint64
	for i := 0; i < 4; i++ {
		seq = mutateNode(t, leader.URL(), chainScript(i))
	}
	waitForSeq(t, f, seq)
	f.close(t) // killed mid-stream

	// The leader keeps committing while the follower is down.
	for i := 4; i < 9; i++ {
		seq = mutateNode(t, leader.URL(), chainScript(i))
	}

	re := startFollower(t, folDir, leader.URL(), DefaultReplWait)
	defer re.close(t)
	waitForSeq(t, re, seq)
	want, _ := json.Marshal(queryRows(t, leader.URL()))
	got, _ := json.Marshal(queryRows(t, re.URL()))
	if string(got) != string(want) {
		t.Fatalf("restarted follower differs from leader:\nleader   %s\nfollower %s", want, got)
	}
	if b := re.fol.Bootstraps(); b != 0 {
		t.Fatalf("catch-up used %d snapshot bootstraps; the WAL stream should have sufficed", b)
	}
}

// TestFollowerBootstrapsWhenTruncated: when the leader checkpoints past a
// downed follower's position, the restarted follower is told 410, downloads
// the snapshot, rebinds, and still converges — counting exactly one
// bootstrap.
func TestFollowerBootstrapsWhenTruncated(t *testing.T) {
	leader := startLeader(t, t.TempDir())
	defer leader.close(t)
	folDir := t.TempDir()

	f := startFollower(t, folDir, leader.URL(), DefaultReplWait)
	seq := mutateNode(t, leader.URL(), chainScript(0))
	waitForSeq(t, f, seq)
	f.close(t)

	for i := 1; i < 5; i++ {
		seq = mutateNode(t, leader.URL(), chainScript(i))
	}
	// The checkpoint folds and truncates the leader's log: position 1 is gone.
	if _, err := leader.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	re := startFollower(t, folDir, leader.URL(), DefaultReplWait)
	defer re.close(t)
	waitForSeq(t, re, seq)
	want, _ := json.Marshal(queryRows(t, leader.URL()))
	got, _ := json.Marshal(queryRows(t, re.URL()))
	if string(got) != string(want) {
		t.Fatalf("bootstrapped follower differs from leader")
	}
	if b := re.fol.Bootstraps(); b != 1 {
		t.Fatalf("follower bootstrapped %d times, want exactly 1", b)
	}
}

// TestRouterRoutingAndFailover: the router pins writes to the leader, serves
// reads from replicas, honors read-your-writes tokens across the fleet, and
// fails over when a replica dies mid-fleet.
func TestRouterRoutingAndFailover(t *testing.T) {
	leader := startLeader(t, t.TempDir())
	defer leader.close(t)
	f1 := startFollower(t, t.TempDir(), leader.URL(), DefaultReplWait)
	defer f1.close(t)
	f2 := startFollower(t, t.TempDir(), leader.URL(), DefaultReplWait)

	rt := NewRouter(RouterConfig{
		Leader:         leader.URL(),
		Replicas:       []string{f1.URL(), f2.URL()},
		HealthInterval: 50 * time.Millisecond,
	})
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Writes through the router land on the leader and return tokens.
	var seq uint64
	for i := 0; i < 3; i++ {
		seq = mutateNode(t, front.URL, chainScript(i))
	}
	if leader.db.CommitSeq() != seq {
		t.Fatalf("router did not pin mutations to the leader")
	}
	waitForSeq(t, f1, seq)
	waitForSeq(t, f2, seq)

	// Tokened reads through the router are correct wherever they land.
	resp := tokenedQuery(t, front.URL, chainQuery, seq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router tokened read: %s", resp.Status)
	}
	backend := resp.Header.Get("X-SSD-Backend")
	rows, status := decodeStream(t, resp.Body)
	resp.Body.Close()
	if status.Error != "" || len(rows) == 0 {
		t.Fatalf("router read via %s: status %+v, %d rows", backend, status, len(rows))
	}
	if backend != f1.URL() && backend != f2.URL() {
		t.Fatalf("router served the read from %q, want a replica", backend)
	}

	// Kill one replica; the router must keep serving through the other.
	f2.close(t)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := tokenedQuery(t, front.URL, chainQuery, seq)
		ok := resp.StatusCode == http.StatusOK
		resp.Body.Close()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never recovered after losing a replica: %s", resp.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Router health reflects the loss.
	hr, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("router healthz status %q with leader and one replica alive", h.Status)
	}
}

// TestRouterRefusesOversizedBodies: the router reads request bodies through
// the same 1 MiB bound as the backends — an oversized /query or /mutate is
// answered 413 by the router itself, and no backend sees a request.
func TestRouterRefusesOversizedBodies(t *testing.T) {
	var forwarded atomic.Int32
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			forwarded.Add(1)
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer backend.Close()
	rt := NewRouter(RouterConfig{Leader: backend.URL, Replicas: []string{backend.URL}})
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	body := strings.Repeat("x", maxBody+1)
	for _, path := range []string{"/query", "/mutate"} {
		resp, err := http.Post(front.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: %s, want 413", path, len(body), resp.Status)
		}
	}
	if n := forwarded.Load(); n != 0 {
		t.Fatalf("backend received %d requests for oversized bodies", n)
	}
}

// TestRouterMetricsFormats: the router serves /metrics through the server's
// handler — Prometheus text under obs.ContentTypePrometheus by default, the
// JSON snapshot with ?format=json.
func TestRouterMetricsFormats(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer backend.Close()
	rt := NewRouter(RouterConfig{Leader: backend.URL, Replicas: []string{backend.URL}})
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Errorf("/metrics content type = %q, want %q", ct, obs.ContentTypePrometheus)
	}

	jresp, err := http.Get(front.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics?format=json content type = %q, want application/json", ct)
	}
	var js struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&js); err != nil {
		t.Fatalf("/metrics?format=json is not JSON: %v", err)
	}
	found := false
	for _, m := range js.Metrics {
		found = found || m.Name == "ssd_router_healthy_backends"
	}
	if !found {
		t.Fatal("JSON snapshot lacks the router's own metric families")
	}
}
