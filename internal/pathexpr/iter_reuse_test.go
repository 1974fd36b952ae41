package pathexpr

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ssd"
)

// randExprSrc renders a random path expression over randGraph's label set.
func randExprSrc(rng *rand.Rand, depth int) string {
	atoms := []string{"a", "b", "_", "isint", "!a", `"s"`, "3"}
	if depth == 0 || rng.Intn(3) == 0 {
		return atoms[rng.Intn(len(atoms))]
	}
	x := randExprSrc(rng, depth-1)
	switch rng.Intn(5) {
	case 0:
		return x + "." + randExprSrc(rng, depth-1)
	case 1:
		return "(" + x + "|" + randExprSrc(rng, depth-1) + ")"
	case 2:
		return "(" + x + ")*"
	case 3:
		return "(" + x + ")+"
	default:
		return "(" + x + ")?"
	}
}

func drain(t *Traversal) []ssd.NodeID {
	out := []ssd.NodeID{}
	for n, ok := t.Next(); ok; n, ok = t.Next() {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestTraversalReuseMatchesEval: one Traversal, reset from every start node
// and re-pointed from graph to graph — including at a graph that gained nodes
// since its scratch was sized, and after a run that cancellation cut short
// with the stack and visit marks still populated — yields exactly the node
// set the independent NFA product search (EvalNFA) computes, each node once.
// (Eval is itself a drained Traversal, so it cannot serve as the oracle.)
func TestTraversalReuseMatchesEval(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randExprSrc(rng, 3)
		au := MustCompile(src)
		var tr *Traversal
		for round := 0; round < 3; round++ {
			g := randGraph(seed*7 + int64(round))
			if tr == nil {
				tr = au.NewTraversal(g)
			} else {
				tr.Retarget(g)
			}
			check := func(when string) {
				t.Helper()
				for v := 0; v < g.NumNodes(); v++ {
					start := ssd.NodeID(v)
					tr.Reset(start)
					got := drain(tr)
					want := MustCompile(src).EvalNFA(g, start)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %q %s, start %d: traversal %v, EvalNFA %v", seed, src, when, start, got, want)
					}
				}
			}
			check(fmt.Sprintf("round %d", round))

			// The same graph object gains nodes (new word of every plane)
			// reachable from the root by every label.
			base := g.AddNodes(70)
			for i := 0; i < 70; i++ {
				from := g.Root()
				if i > 0 {
					from = base + ssd.NodeID(rng.Intn(i))
				}
				g.AddEdge(from, []ssd.Label{ssd.Sym("a"), ssd.Sym("b"), ssd.Int(3)}[i%3], base+ssd.NodeID(i))
			}
			check(fmt.Sprintf("round %d grown", round))

			// A run cancelled midway leaves scratch behind; the next Reset
			// must not see it.
			ctx, cancel := context.WithCancel(context.Background())
			tr.SetContext(ctx)
			tr.Reset(g.Root())
			tr.Next()
			cancel()
			if _, ok := tr.Next(); ok || tr.Err() == nil {
				t.Fatalf("seed %d %q: cancelled traversal kept yielding", seed, src)
			}
			tr.SetContext(nil)
			check(fmt.Sprintf("round %d after cancel", round))
		}
	}
}
