package query

import (
	"context"
	"fmt"
	"runtime"
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
		t.Run(c.name, func(t *testing.T) {
			g := caseGraph(t, c)
			q := MustParse(c.query)
			ix := index.BuildLabelIndex(g)
			for _, po := range []PlanOptions{{}, {Label: ix}} {
				for _, workers := range []int{2, 4} {
					compareParallel(t, fmt.Sprintf("index=%t/workers=%d", po.Label != nil, workers), q, g, po, c.params, workers, 2)
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

// forceSplits lowers the adaptive-split thresholds so that every morsel
// splits as aggressively as the machinery allows, and returns a restore
// function. Tests that force splits must restore before returning (and must
// not run in parallel with each other); the happens-before edges of
// goroutine start and Cursor.Close make the writes race-free.
func forceSplits() (restore func()) {
	of, om := splitFactor, splitMinRows
	splitFactor, splitMinRows = 0, 1
	return func() { splitFactor, splitMinRows = of, om }
}

// TestParallelAdaptiveSplitByteIdentical is the acceptance property for
// runtime morsel splitting: with the split thresholds floored so workers
// split after every seed (maximally chained continuations), the merged
// stream must still be the serial engine's row stream across the whole
// engine cross-check corpus.
func TestParallelAdaptiveSplitByteIdentical(t *testing.T) {
	defer forceSplits()()
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) {
			compareParallel(t, "split", MustParse(c.query), caseGraph(t, c), PlanOptions{}, c.params, 3, 4)
		})
	}
}

// TestParallelAdaptiveSplitRowOrder pins that splitting actually happened
// and that the continuation-chain merge preserves exact row order, not just
// the canonicalized result.
//
// A split handoff is a rendezvous — it happens only when another worker is
// parked idle at the instant of the attempt — so no single run can demand
// one from the scheduler. The setup makes a split all but certain: the
// morsel size exceeds the seed count, so one worker owns the whole scan
// while the other two park idle, and the floored thresholds attempt a
// handoff after every one of the ~2000 seeds. GOMAXPROCS is raised because
// on a single-P runtime the merge goroutine and the busy worker hand the
// processor to each other through the scheduler's runnext slot, which can
// starve the idle workers out of ever parking (that starvation is exactly
// why splits are opportunistic in production); the retry loop turns "all
// but certain" into a deterministic pin. Every attempt, split or not, must
// match the serial row stream exactly.
func TestParallelAdaptiveSplitRowOrder(t *testing.T) {
	defer forceSplits()()
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	g := workload.Movies(workload.DefaultMovieConfig(2000))
	q := MustParse(`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A`)
	for attempt := 0; ; attempt++ {
		sp, err := NewPlan(q, g, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ser, err := sp.Cursor(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlan(q, g, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		par := openParallel(t, p, nil, nil, 3, 5000)
		if sameRowStream(t, fmt.Sprintf("attempt %d", attempt), p, ser, par) == 0 {
			t.Fatal("no rows compared")
		}
		nsplits := par.par.sh.nsplits.Load()
		ser.Close()
		par.Close()
		if nsplits > 0 {
			return
		}
		if attempt >= 9 {
			t.Fatal("no forced-split attempt performed a split in 10 runs: the adaptive path was not exercised")
		}
	}
}

// TestParallelAdaptiveSplitCancellation: cancelling mid-stream while splits
// are flying must still tear the pool down promptly.
func TestParallelAdaptiveSplitCancellation(t *testing.T) {
	defer forceSplits()()
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

// TestParallelSplitRendezvous drives workMorsel against a hand-rolled idle
// receiver, pinning the handoff mechanics without depending on pool
// scheduling: the split must go to a parked receiver, the final batch must
// carry the suffix's channel as its continuation, and the handed-off suffix
// plus the rows delivered before it must exactly partition the seed range.
// The ready-handshake guarantees the receiver is parked before workMorsel
// starts on a single-P runtime (the receiver runs until it blocks before
// the main goroutine resumes); on a multi-P runtime workMorsel re-attempts
// the handoff after every seed, so the receiver only has to park sometime
// during the scan.
func TestParallelSplitRendezvous(t *testing.T) {
	defer forceSplits()()
	g := workload.Movies(workload.DefaultMovieConfig(60))
	q := MustParse(`select T from DB.Entry.Movie M, M.Title T`)
	sp, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Materialize the seed rows the way the coordinator does: a serial pass
	// over just the leading atom.
	seedEx := sp.exec(context.Background(), nil)
	seedEx.atoms = seedEx.atoms[:1]
	dst := sp.atoms[0].dstSlot
	var seeds []seedRow
	for seedEx.Next() {
		seeds = append(seeds, seedRow{tree: seedEx.regs.trees[dst]})
	}
	if seedEx.err != nil || len(seeds) < splitMinSeedsLeft+1 {
		t.Fatalf("seeding: %d seeds, err %v", len(seeds), seedEx.err)
	}

	wp, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sh := newParShared()
	sh.pending.Add(1)
	claimed := make(chan morsel, 1)
	ready := make(chan struct{})
	go func() {
		close(ready)
		claimed <- <-sh.splits
	}()
	<-ready

	out := make(chan rowBatch, morselResultBuf)
	ex := wp.exec(context.Background(), nil)
	ex.base = 1
	ex.relaxedPoll = true
	if !workMorsel(context.Background(), ex, wp, leadSlots{}, morsel{seeds: seeds, out: out}, sh) {
		t.Fatal("workMorsel reported cancellation")
	}
	sh.morselDone() // what runWorker does after workMorsel returns
	var prefixRows int
	var cont chan rowBatch
	for b := range out {
		if b.err != nil {
			t.Fatalf("batch error: %v", b.err)
		}
		prefixRows += b.n
		cont = b.cont
	}
	if cont == nil {
		t.Fatal("no split: final batch carries no continuation despite a parked receiver")
	}
	m := <-claimed
	if m.out != cont {
		t.Fatal("handed-off suffix morsel does not deliver on the continuation channel")
	}
	// Every movie yields exactly one Title row, so rows delivered before the
	// handoff plus suffix seeds must account for every seed.
	if prefixRows+len(m.seeds) != len(seeds) {
		t.Fatalf("prefix rows (%d) + suffix seeds (%d) != total seeds (%d)",
			prefixRows, len(m.seeds), len(seeds))
	}
	if got := sh.nsplits.Load(); got < 1 {
		t.Fatalf("nsplits = %d, want >= 1", got)
	}
	if got := sh.pending.Load(); got != 1 {
		t.Fatalf("pending = %d after handoff, want 1 (suffix outstanding)", got)
	}
}

// TestParallelWorkerDrainDeliversError is the regression test for the
// failed-worker drain path: once a worker's executor has failed, every
// morsel it subsequently drains must carry the terminal error, not be
// closed empty. A drained split can precede the failing morsel in merge
// order, and an empty close there would make the merge treat the gap as a
// completed morsel — silently skipping that seed range's rows and then
// yielding later rows before the error, which breaks the serial engine's
// prefix semantics.
func TestParallelWorkerDrainDeliversError(t *testing.T) {
	g := workload.Fig1(false)
	q := MustParse(`select T from DB.Entry.Movie M, M.Title T`)
	wp, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wp.atoms[1].steps[0].au = nil // first pull panics -> executor fails
	sh := newParShared()
	morsels := make(chan morsel, 2)
	seeds := []seedRow{{tree: g.Root()}}
	outs := make([]chan rowBatch, 2)
	for i := range outs {
		outs[i] = make(chan rowBatch, morselResultBuf)
		sh.pending.Add(1)
		morsels <- morsel{seeds: seeds, out: outs[i]}
	}
	close(morsels)
	sh.finishSeeding()
	runWorker(context.Background(), wp, nil, wp.leadSlots(), morsels, sh)
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
	select {
	case <-sh.done:
	default:
		t.Fatal("drained pool did not reach done")
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
