package query

import (
	"context"
	"sync"
	"testing"

	"repro/internal/ssd"
	"repro/internal/workload"
)

// TestCursorCancellation: cancelling the context mid-iteration stops the
// executor within one pull and surfaces the error through Cursor.Err.
func TestCursorCancellation(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(2000))
	q := MustParse(`select X from DB._* X`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := p.Cursor(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal("no first row")
	}
	cancel()
	rows := 1
	for cur.Next() {
		rows++
	}
	if cur.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", cur.Err())
	}
	// The strided inner check bounds post-cancel work to well under the
	// full scan; the pull-top check bounds it to one extra pull. With a
	// 2000-entry graph (tens of thousands of rows) anything close to the
	// full row count means cancellation did not take.
	if rows > 100 {
		t.Fatalf("executor produced %d rows after cancellation", rows)
	}
}

// TestEvalGraphCtxCancelled: a cancelled context aborts EvalGraphCtx with
// the context error rather than a partial result.
func TestEvalGraphCtxCancelled(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(500))
	q := MustParse(`select X from DB._* X`)
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.EvalGraphCtx(ctx, nil); err != context.Canceled {
		t.Fatalf("EvalGraphCtx = %v, want context.Canceled", err)
	}
}

// TestCursorParams: parameter binding through the cursor — missing and
// unknown names error, bound values select the same rows as literals.
func TestCursorParams(t *testing.T) {
	g := workload.Fig1(false)
	q := MustParse(`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`)
	if len(q.Params) != 1 || q.Params[0] != "who" {
		t.Fatalf("Params = %v", q.Params)
	}
	p, err := NewPlan(q, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Cursor(nil, nil, nil); err == nil {
		t.Fatal("missing parameter should error")
	}
	if _, err := p.Cursor(nil, map[string]ssd.Label{"who": ssd.Str("Allen"), "x": ssd.Int(1)}, nil); err == nil {
		t.Fatal("unknown parameter should error")
	}
	count := func(who string) int {
		cur, err := p.Cursor(nil, map[string]ssd.Label{"who": ssd.Str(who)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for cur.Next() {
			n++
		}
		return n
	}
	// Re-executing the same plan with different arguments — no re-plan.
	allen, bogart, nobody := count("Allen"), count("Bogart"), count("NoSuchActor")
	if allen == 0 || bogart == 0 {
		t.Fatalf("allen=%d bogart=%d, want both > 0", allen, bogart)
	}
	if nobody != 0 {
		t.Fatalf("nobody=%d, want 0", nobody)
	}
	// Literal cross-check.
	lq := MustParse(`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`)
	lp, err := NewPlan(lq, g, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lit := len(drainRows(t, lp, 0)); lit != allen {
		t.Fatalf("param rows %d != literal rows %d", allen, lit)
	}
}

// TestConcurrentPlansSharedQuery is the -race regression for the shared-
// automaton hazard: two plans compiled from ONE parsed query must not
// share mutable lazy-DFA state, so concurrent cursors are race-free. The
// generated graph is large enough that the DFA caches keep growing while
// both goroutines run.
func TestConcurrentPlansSharedQuery(t *testing.T) {
	g := workload.Movies(workload.DefaultMovieConfig(300))
	q := MustParse(`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := NewPlan(q, g, PlanOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			who := []string{"Allen", "Bogart", "Bacall", "Curtiz"}[i%4]
			cur, err := p.Cursor(nil, map[string]ssd.Label{"who": ssd.Str(who)}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for cur.Next() {
			}
		}(i)
	}
	wg.Wait()
}
