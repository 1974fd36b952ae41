package query

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// TestCursorReportsMidStreamFailure is the regression test for the silent
// error-swallowing bug: a failure in the pull loop after rows have already
// streamed must surface through Cursor.Err, not present as clean exhaustion
// (and not crash the process).
func TestCursorReportsMidStreamFailure(t *testing.T) {
	g := workload.Fig1(false)
	q := MustParse(`select {%L} from DB.Entry.Movie M, M.%L X`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Cursor(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal("expected at least one row before the failure")
	}
	// Sabotage the executor mid-stream: swap in a graph with no nodes
	// beyond the root, so the next label-variable step dereferences an
	// out-of-range node. The old code would have panicked through the
	// caller; the fix converts it to a terminal error.
	cur.ex.g = ssd.New()
	rows := 1
	for cur.Next() {
		rows++
	}
	if cur.Err() == nil {
		t.Fatalf("mid-stream failure swallowed: %d rows then clean exhaustion", rows)
	}
	if !strings.Contains(cur.Err().Error(), "execution failed") {
		t.Errorf("unexpected error: %v", cur.Err())
	}
	// The terminal state is sticky, and survives Close: Err-after-Close is
	// the database/sql idiom, and the executor recycled by Close must not
	// be able to clobber it.
	if cur.Next() {
		t.Error("Next yielded a row after a terminal error")
	}
	want := cur.Err()
	cur.Close()
	if cur.Err() != want {
		t.Fatalf("Err after Close = %v, want %v", cur.Err(), want)
	}
}

// TestCursorReportsStaleIndex pins the realistic variant: a plan fed a
// label index built from a different (larger) snapshot yields posting
// entries pointing past the graph — an error, not a crash and not an empty
// result.
func TestCursorReportsStaleIndex(t *testing.T) {
	small := workload.Fig1(false)
	big := workload.Movies(workload.DefaultMovieConfig(500))
	q := MustParse(`select X from DB._*.Title X`)
	p, err := NewPlan(q, small, PlanOptions{Label: index.BuildLabelIndex(big)})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Cursor(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	if cur.Err() == nil {
		t.Fatal("stale-index failure reported as clean exhaustion")
	}
}

// TestCursorCloseMidStream: abandoning a cursor without draining it makes
// Close idempotent and further Next calls report exhaustion, and the plan's
// next cursor — which recycles the abandoned executor — yields the full row
// stream again.
func TestCursorCloseMidStream(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(300))
	p, err := NewPlan(MustParse(`select T from DB.Entry.Movie M, M.Title T`), g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	drain := func() []ssd.NodeID {
		t.Helper()
		cur, err := p.Cursor(nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var out []ssd.NodeID
		for cur.Next() {
			out = append(out, cur.Tree(0), cur.Tree(1))
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := drain()
	if len(want) < 4 {
		t.Fatalf("only %d rows", len(want)/2)
	}

	cur, err := p.Cursor(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal("no first row")
	}
	cur.Close()
	cur.Close() // idempotent
	if cur.Next() {
		t.Fatal("Next yielded after Close")
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("Err after an abandoned stream = %v", err)
	}

	if got := drain(); !slices.Equal(got, want) {
		t.Fatalf("stream after an abandoned cursor: %d bindings, want %d", len(got), len(want))
	}
}
