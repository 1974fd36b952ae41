package query

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// TestParallelMatchesSerialByteIdentical is the determinism acceptance
// property: the morsel-driven parallel engine must yield the serial
// engine's exact row stream — and therefore a byte-identical result — on
// the whole engine cross-check suite, at several worker counts and with
// deliberately tiny morsels (so every query actually exercises the
// partition/merge machinery).
func TestParallelMatchesSerialByteIdentical(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.Name, func(t *testing.T) {
			g := caseGraph(t, c)
			q := MustParse(c.Query)
			ix := index.BuildLabelIndex(g)
			for _, po := range []PlanOptions{{}, {Label: ix}} {
				for _, workers := range []int{2, 4} {
					compareParallel(t, fmt.Sprintf("index=%t/workers=%d", po.Label != nil, workers), q, g, po, c.Params, workers, 2)
				}
			}
		})
	}
}

// compareParallel runs q serially and through a parallel cursor over
// sibling plans, and requires identical row streams. It returns the number
// of rows compared.
func compareParallel(t *testing.T, what string, q *Query, g ssd.GraphStore, po PlanOptions, params map[string]ssd.Label, workers, morsel int) int {
	t.Helper()
	// The serial cursor gets its own compiled plan: a plan (and its DFA
	// caches) has one owner at a time, and p is busy seeding the pool.
	sp, err := NewPlan(q, g, po)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := sp.Cursor(nil, params)
	if err != nil {
		t.Fatal(err)
	}
	defer ser.Close()
	p, err := NewPlan(q, g, po)
	if err != nil {
		t.Fatal(err)
	}
	par := openParallel(t, p, nil, params, workers, morsel)
	defer par.Close()
	return sameRowStream(t, what, p, ser, par)
}

// sameRowStream drains a serial and a parallel cursor in lockstep and fails
// on the first row whose tree, label or path slots differ, on a stream that
// ends early or runs long, and on either cursor's error. It returns the
// number of rows compared.
func sameRowStream(t *testing.T, what string, p *Plan, ser, par *Cursor) int {
	t.Helper()
	row := 0
	for ser.Next() {
		if !par.Next() {
			t.Fatalf("%s: parallel ended at row %d, serial has more (err %v)", what, row, par.Err())
		}
		for i := range p.treeName {
			if ser.Tree(i) != par.Tree(i) {
				t.Fatalf("%s row %d: tree slot %d: %d != %d", what, row, i, par.Tree(i), ser.Tree(i))
			}
		}
		for i := range p.labelName {
			if ser.Label(i) != par.Label(i) {
				t.Fatalf("%s row %d: label slot %d differs", what, row, i)
			}
		}
		for i := range p.pathName {
			if !slices.Equal(ser.Path(i), par.Path(i)) {
				t.Fatalf("%s row %d: path slot %d differs", what, row, i)
			}
		}
		row++
	}
	if par.Next() {
		t.Fatalf("%s: parallel has extra rows after %d", what, row)
	}
	if ser.Err() != nil || par.Err() != nil {
		t.Fatalf("%s: errs %v / %v", what, ser.Err(), par.Err())
	}
	return row
}

// TestParallelAdaptiveSplitByteIdentical splits every engine case's scan
// as finely as it can be split — one seed per morsel, so the merge must
// order the most result channels it can ever be handed — and also at four
// seeds per morsel, across three workers. The merged stream must be the
// serial engine's row stream.
func TestParallelAdaptiveSplitByteIdentical(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.Name, func(t *testing.T) {
			q, g := MustParse(c.Query), caseGraph(t, c)
			for _, morsel := range []int{1, 4} {
				compareParallel(t, fmt.Sprintf("morsel=%d", morsel), q, g, PlanOptions{}, c.Params, 3, morsel)
			}
		})
	}
}

// TestParallelAdaptiveSplitCancellation cancels a scan split as finely as
// it can be — one seed per morsel, so the merge holds the most per-morsel
// result channels it can ever be handed — and checks the cursor stops
// promptly and reports the context error.
func TestParallelAdaptiveSplitCancellation(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(2000))
	q := MustParse(`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur := openParallel(t, p, ctx, nil, 3, 1)
	defer cur.Close()
	for i := 0; i < 5; i++ {
		if !cur.Next() {
			t.Fatalf("row %d: premature end (err %v)", i, cur.Err())
		}
	}
	cancel()
	if cur.Next() && cur.Next() {
		t.Fatal("cursor kept yielding after cancellation")
	}
	if cur.Err() != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", cur.Err())
	}
}

// openParallel compiles worker plans and opens a parallel cursor — the
// query-layer equivalent of what the statement pool does.
func openParallel(t *testing.T, p *Plan, ctx context.Context, params map[string]ssd.Label, workers, morsel int) *Cursor {
	t.Helper()
	ws := make([]*Plan, workers)
	for i := range ws {
		wp, err := NewPlan(p.q, p.g, p.opts)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = wp
	}
	cur, err := p.CursorParallel(ctx, params, ws, morsel, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// TestParallelRowOrderIdentity pins the stronger property behind the byte
// identity: the parallel cursor yields rows in exactly the serial engine's
// order, including label and path witness slots shipped through seeds and
// batches.
func TestParallelRowOrderIdentity(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(200))
	queries := []string{
		`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`,
		`select {T: %L} from DB.Entry.%L M, M.Title T`,      // seed-shipped label slot
		`select @P from DB.@P M, M.Title T`,                 // seed-shipped path slot
		`select T from DB.Entry.Movie M, M.@P X, M.Title T`, // worker-side path witnesses
	}
	for _, src := range queries {
		if compareParallel(t, src, MustParse(src), g, PlanOptions{}, nil, 3, 8) == 0 {
			t.Fatalf("%s: no rows compared", src)
		}
	}
}

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
	cur, err := p.Cursor(nil, nil)
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
	cur, err := p.Cursor(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	if cur.Err() == nil {
		t.Fatal("stale-index failure reported as clean exhaustion")
	}
}

// TestParallelWorkerFailure: a worker whose executor dies (here: a
// sabotaged automaton making the traversal panic) must surface through
// Cursor.Err at the merge, not hang the cursor or truncate silently.
func TestParallelWorkerFailure(t *testing.T) {
	g := workload.Fig1(false)
	q := MustParse(`select T from DB.Entry.Movie M, M.Title T`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wp, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wp.atoms[1].steps[0].au = nil // worker's first pull will panic
	cur, err := p.CursorParallel(nil, nil, []*Plan{wp}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for cur.Next() {
	}
	if cur.Err() == nil {
		t.Fatal("worker panic reported as clean exhaustion")
	}
	if !strings.Contains(cur.Err().Error(), "execution failed") {
		t.Errorf("unexpected error: %v", cur.Err())
	}
}

// TestParallelWorkerDrainDeliversError is the regression test for the
// failed-worker drain path: once a worker's executor has failed, every
// morsel it subsequently drains must carry the terminal error, not be
// closed empty. A channel closed empty reads to the merge as a morsel that
// produced no rows — a silent gap in the stream instead of the serial
// engine's prefix-then-error semantics.
func TestParallelWorkerDrainDeliversError(t *testing.T) {
	g := workload.Fig1(false)
	q := MustParse(`select T from DB.Entry.Movie M, M.Title T`)
	wp, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wp.atoms[1].steps[0].au = nil // first pull panics -> executor fails
	morsels := make(chan morsel, 2)
	seeds := []seedRow{{tree: g.Root()}}
	outs := make([]chan rowBatch, 2)
	for i := range outs {
		outs[i] = make(chan rowBatch, morselResultBuf)
		morsels <- morsel{seeds: seeds, out: outs[i]}
	}
	close(morsels)
	runWorker(context.Background(), wp, nil, wp.leadSlots(), morsels, &parShared{})
	for i, out := range outs {
		b, ok := <-out
		if !ok {
			t.Fatalf("morsel %d: channel closed empty, want a terminal error batch", i)
		}
		if b.err == nil {
			t.Fatalf("morsel %d: batch carries no error", i)
		}
		if _, ok := <-out; ok {
			t.Fatalf("morsel %d: batch after the terminal error", i)
		}
	}
}

// TestParallelCancellation: cancelling the request context stops a parallel
// cursor promptly, reports the context error, and leaves the pool in a
// state Close can reap.
func TestParallelCancellation(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(2000))
	q := MustParse(`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur := openParallel(t, p, ctx, nil, 3, 16)
	defer cur.Close()
	for i := 0; i < 5; i++ {
		if !cur.Next() {
			t.Fatalf("row %d: premature end (err %v)", i, cur.Err())
		}
	}
	cancel()
	if cur.Next() {
		// One row may already be staged in the merge view; the next pull
		// after cancellation must stop.
		if cur.Next() {
			t.Fatal("cursor kept yielding after cancellation")
		}
	}
	if cur.Err() != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", cur.Err())
	}
}

// TestParallelCloseMidStream: abandoning a parallel cursor without draining
// it must stop the pool (Close returns only after workers quiesce) and make
// further Next calls report exhaustion.
func TestParallelCloseMidStream(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(1000))
	q := MustParse(`select T from DB.Entry.Movie M, M.Title T`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur := openParallel(t, p, nil, nil, 2, 4)
	if !cur.Next() {
		t.Fatal("no first row")
	}
	cur.Close()
	cur.Close() // idempotent
	if cur.Next() {
		t.Fatal("Next yielded after Close")
	}
}

// TestParallelFallbacks: single-atom plans and empty worker sets run on the
// serial engine behind the same Cursor face.
func TestParallelFallbacks(t *testing.T) {
	g := workload.Fig1(false)
	q := MustParse(`select X from DB.Entry X`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.CursorParallel(nil, nil, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for cur.Next() {
		n++
	}
	if n == 0 || cur.Err() != nil {
		t.Fatalf("fallback cursor: %d rows, err %v", n, cur.Err())
	}
}

// TestParallelIncompatibleWorker: handing the pool a plan for a different
// graph or query is refused up front.
func TestParallelIncompatibleWorker(t *testing.T) {
	g := workload.Fig1(false)
	q := MustParse(`select T from DB.Entry.Movie M, M.Title T`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewPlan(MustParse(`select X from DB.Entry X`), g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CursorParallel(nil, nil, []*Plan{other}, 0, nil); err == nil {
		t.Fatal("incompatible worker plan accepted")
	}
	g2 := workload.Fig1(false)
	wrongGraph, err := NewPlan(q, g2, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CursorParallel(nil, nil, []*Plan{wrongGraph}, 0, nil); err == nil {
		t.Fatal("worker plan for a different graph accepted")
	}
}
