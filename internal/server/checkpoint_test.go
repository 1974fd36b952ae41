package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// newDurableServer builds a Server over a directory-backed database.
func newDurableServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *core.Database, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := core.OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseWAL() })
	srv := New(db, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, db, dir
}

func postMutate(t *testing.T, url, script string) {
	t.Helper()
	resp, err := http.Post(url+"/mutate", "text/plain", strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d", resp.StatusCode)
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	_, ts, db, _ := newDurableServer(t, Config{})
	postMutate(t, ts.URL, `addnode; addedge 0 Tag $0`)
	before := db.WALSize()

	resp, err := http.Post(ts.URL+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d", resp.StatusCode)
	}
	var cr checkpointResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Seq != 1 || cr.Truncated != 1 || cr.Bytes == 0 {
		t.Fatalf("checkpoint response %+v, want seq 1 folding 1 batch", cr)
	}
	if cr.WALBytes >= before {
		t.Fatalf("WAL did not shrink: %d -> %d bytes", before, cr.WALBytes)
	}
}

func TestCheckpointEndpointNonDurable(t *testing.T) {
	_, ts, _ := newTestServer(t, 50)
	resp, err := http.Post(ts.URL+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d on a non-durable database, want 409", resp.StatusCode)
	}
}

func TestHealthzReportsDurability(t *testing.T) {
	_, ts, _, _ := newDurableServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["durable"] != true {
		t.Fatalf("healthz durable = %v, want true", h["durable"])
	}
	if _, ok := h["wal_bytes"].(float64); !ok {
		t.Fatalf("healthz wal_bytes missing: %v", h)
	}
}

// TestBackgroundCheckpointerInterval serves a mutation and waits for the
// timer-triggered checkpointer to fold it into a generation: the WAL
// shrinks back to just its header frame.
func TestBackgroundCheckpointerInterval(t *testing.T) {
	srv, ts, db, _ := newDurableServer(t, Config{CheckpointInterval: 20 * time.Millisecond})
	postMutate(t, ts.URL, `addnode; addedge 0 Tag $0`)
	deadline := time.Now().Add(5 * time.Second)
	for db.WALSize() > 64 {
		if time.Now().After(deadline) {
			t.Fatalf("no background checkpoint after 5s (wal %d bytes)", db.WALSize())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundCheckpointerSizeThreshold checkpoints when the WAL grows
// past the byte threshold, long before the hour-long timer would fire.
func TestBackgroundCheckpointerSizeThreshold(t *testing.T) {
	srv, ts, db, _ := newDurableServer(t, Config{
		CheckpointInterval: time.Hour,
		CheckpointMaxWAL:   256,
		pollOverride:       5 * time.Millisecond,
	})
	for i := 0; i < 8; i++ {
		postMutate(t, ts.URL, fmt.Sprintf("addnode; addedge 0 %d $0", i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.WALSize() > 256 {
		if time.Now().After(deadline) {
			t.Fatalf("no size-triggered checkpoint after 5s (wal %d bytes)", db.WALSize())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
