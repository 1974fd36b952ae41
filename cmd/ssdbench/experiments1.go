package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/datalog"
	"repro/internal/index"
	"repro/internal/pathexpr"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/ssd"
	"repro/internal/unql"
	"repro/internal/workload"
)

// timeIt runs f once and returns the wall time.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// timeBest runs f a few times and returns the best wall time, which is less
// noisy for sub-millisecond work.
func timeBest(reps int, f func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		if d := timeIt(f); d < best {
			best = d
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Figure 1

func runFig1(int) {
	g := workload.Fig1(true) // with the figure's misspelled Bacal edge
	db := core.FromGraph(g)
	fmt.Println("  database:", db.Describe())
	fmt.Println()

	t := newTable("query (paper §)", "surface syntax", "answer")
	ask := func(section, q string) {
		s, err := db.Prepare(q)
		if err != nil {
			panic(err)
		}
		res, err := s.Exec(context.Background())
		if err != nil {
			panic(err)
		}
		t.add(section, oneLine(q), res.Format())
	}
	ask("§3 select fragment", `select T from DB.Entry.Movie.Title T`)
	ask("§3 'Allen in Casablanca'", `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast.(!Movie)* A where A = "Allen"`)
	ask("§3 two cast forms", `select {Name: %N} from DB.Entry._.Cast.(isint|Credit.Actors|Special-Guests)? A, A.%N L where isstring(%N)`)
	ask("§1.3 attrs like act%", `select {%L} from DB._* X, X.%L Y where %L like "Act%"`)
	t.print()

	// The restructuring example: fix the Bacal edge with structural
	// recursion, then verify against the corrected figure.
	fixed := unql.RelabelWhere(g, pathexpr.ExactPred{L: ssd.Str("Bacal")}, ssd.Str("Bacall"))
	ok := bisim.Equal(fixed, workload.Fig1(false))
	fmt.Printf("\n  §3 UnQL restructuring: relabel \"Bacal\"→\"Bacall\" reproduces corrected figure: %v\n", ok)
}

func oneLine(s string) string {
	out := make([]byte, 0, len(s))
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\n' || c == '\t' || c == ' ' {
			space = true
			continue
		}
		if space && len(out) > 0 {
			out = append(out, ' ')
		}
		space = false
		out = append(out, c)
	}
	if len(out) > 60 {
		out = append(out[:57], "..."...)
	}
	return string(out)
}

// ---------------------------------------------------------------------------
// E2: browsing — scan vs index

func runE2Browsing(scale int) {
	t := newTable("edges", "query", "hits", "scan", "indexed", "speedup")
	for _, entries := range []int{500 * scale, 5000 * scale, 50000 * scale} {
		g := workload.Movies(workload.DefaultMovieConfig(entries))
		ix := index.BuildValueIndex(g)
		edges := g.NumEdges()

		queries := []struct {
			name string
			pred pathexpr.Pred
			idx  func() int
		}{
			{`string "Bogart"`, pathexpr.ExactPred{L: ssd.Str("Bogart")},
				func() int { return len(ix.Exact(ssd.Str("Bogart"))) }},
			{"ints > 2^16", pathexpr.CmpPred{Op: pathexpr.OpGT, Rhs: ssd.Int(65536)},
				func() int { return len(ix.Compare(pathexpr.OpGT, ssd.Int(65536))) }},
			{`like "Cred%"`, pathexpr.LikePred{Pattern: "Cred%"},
				func() int { return len(ix.Like("Cred%")) }},
		}
		for _, q := range queries {
			var scanHits, idxHits int
			scanTime := timeBest(3, func() { scanHits = len(index.ScanGraph(g, q.pred)) })
			idxTime := timeBest(3, func() { idxHits = q.idx() })
			if scanHits != idxHits {
				panic(fmt.Sprintf("E2 mismatch: scan %d, index %d", scanHits, idxHits))
			}
			t.add(edges, q.name, scanHits, scanTime, idxTime, ratio(scanTime, idxTime))
		}
	}
	t.print()
	fmt.Println("  expectation: index wins and the gap grows with database size.")
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// ---------------------------------------------------------------------------
// E3: path queries — product traversal vs DataGuide path index

func runE3PathIndex(scale int) {
	t := newTable("edges", "query", "hits", "NFA product", "lazy-DFA", "dataguide", "guide nodes")
	queries := []string{
		"Entry.Movie.Title._",
		`_*."Bogart"`,
		"Entry._.Cast.(isint|Credit.Actors|Special-Guests)._",
	}
	for _, entries := range []int{500 * scale, 5000 * scale, 25000 * scale} {
		g := workload.Movies(workload.DefaultMovieConfig(entries))
		guide := dataguide.MustBuild(g)
		for _, src := range queries {
			var nfaHits, dfaHits, dgHits int
			nfaTime := timeBest(3, func() {
				au := pathexpr.MustCompile(src)
				nfaHits = len(au.EvalNFA(g, g.Root()))
			})
			dfaTime := timeBest(3, func() {
				au := pathexpr.MustCompile(src)
				dfaHits = len(au.Eval(g, g.Root()))
			})
			dgTime := timeBest(3, func() {
				au := pathexpr.MustCompile(src)
				dgHits = len(guide.Eval(au))
			})
			if nfaHits != dfaHits || dfaHits != dgHits {
				panic("E3 evaluation mismatch")
			}
			t.add(g.NumEdges(), src, nfaHits, nfaTime, dfaTime, dgTime, guide.NumNodes())
		}
	}
	t.print()
	fmt.Println("  expectation: the guide is far smaller than the data on regular databases,")
	fmt.Println("  so guide evaluation beats direct traversal for selective queries.")
}

// ---------------------------------------------------------------------------
// E4: datalog — naive vs semi-naive

func runE4Datalog(scale int) {
	t := newTable("workload", "edges", "tuples", "naive joins", "semi joins", "naive time", "semi time")
	progSrc := `
		reach(X) :- root(X).
		reach(Y) :- reach(X), edge(X, _, Y).`
	prog := datalog.MustParseProgram(progSrc)
	for _, pages := range []int{200 * scale, 1000 * scale, 4000 * scale} {
		g := workload.Web(workload.WebConfig{Pages: pages, OutLinks: 3, Seed: 7})
		var naiveJoins, semiJoins, tuples int
		en := datalog.NewEngine(g)
		naiveTime := timeIt(func() {
			res, err := en.Run(context.Background(), prog, datalog.Naive)
			if err != nil {
				panic(err)
			}
			tuples = res["reach"].Len()
		})
		naiveJoins = en.Joins
		es := datalog.NewEngine(g)
		semiTime := timeIt(func() {
			res, err := es.Run(context.Background(), prog, datalog.SemiNaive)
			if err != nil {
				panic(err)
			}
			if res["reach"].Len() != tuples {
				panic("E4 result mismatch")
			}
		})
		semiJoins = es.Joins
		t.add(fmt.Sprintf("web %d pages", pages), g.NumEdges(), tuples,
			naiveJoins, semiJoins, naiveTime, semiTime)
	}
	// Deep-recursion case: a long chain maximizes rounds.
	chain := ssd.New()
	cur := chain.Root()
	for i := 0; i < 300*scale; i++ {
		cur = chain.AddLeaf(cur, ssd.Sym("next"))
	}
	en := datalog.NewEngine(chain)
	naiveTime := timeIt(func() { _, _ = en.Run(context.Background(), prog, datalog.Naive) })
	es := datalog.NewEngine(chain)
	semiTime := timeIt(func() { _, _ = es.Run(context.Background(), prog, datalog.SemiNaive) })
	t.add(fmt.Sprintf("chain %d", 300*scale), chain.NumEdges(), chain.NumNodes(),
		en.Joins, es.Joins, naiveTime, semiTime)
	t.print()
	fmt.Println("  expectation: semi-naive does asymptotically less join work; the gap")
	fmt.Println("  explodes on deep recursion (the chain row).")
}

// ---------------------------------------------------------------------------
// E5: relational equivalence

func runE5Equivalence(scale int) {
	t := newTable("movies", "query", "RA rows", "query rows", "equal", "RA time", "query time")
	for _, n := range []int{100 * scale, 1000 * scale} {
		rdb := workload.Relational(n, n/10+1, 3)
		g := relstore.EncodeRelational(rdb)
		movies, directors := rdb["movies"], rdb["directors"]

		// σ/π: titles of movies by a fixed director.
		someDirector := movies.Rows()[0][movies.Col("director")]
		var ra *relstore.Relation
		raTime := timeBest(3, func() {
			ra = relstore.Project(relstore.SelectEq(movies, "director", someDirector), "title")
		})
		q := query.MustParse(fmt.Sprintf(`
			select {tuple: {title: T}}
			from DB.movies.tuple R, R.title T, R.director D
			where D = %q`, mustText(someDirector)))
		var qrows int
		var qres *ssd.Graph
		qTime := timeBest(3, func() {
			var err error
			qres, err = query.Eval(q, g)
			if err != nil {
				panic(err)
			}
		})
		got := decodeResult(qres)
		qrows = got.Len()
		t.add(n, "π_title(σ_director)", ra.Len(), qrows, got.Equal(ra), raTime, qTime)

		// ⋈: movie titles with director birth years.
		var raj *relstore.Relation
		rajTime := timeBest(3, func() {
			raj = relstore.Project(relstore.Join(movies, directors), "title", "born")
		})
		qj := query.MustParse(`
			select {tuple: {title: T, born: B}}
			from DB.movies.tuple R, R.title T, R.director D,
			     DB.directors.tuple S, S.director D2, S.born B
			where D = D2`)
		var qjres *ssd.Graph
		qjTime := timeBest(3, func() {
			var err error
			qjres, err = query.Eval(qj, g)
			if err != nil {
				panic(err)
			}
		})
		gotj := relstore.Project(decodeResult(qjres), "title", "born")
		t.add(n, "π(movies ⋈ directors)", raj.Len(), gotj.Len(), gotj.Equal(raj), rajTime, qjTime)
	}
	t.print()
	fmt.Println("  expectation: identical answers (the paper's expressiveness claim);")
	fmt.Println("  the dedicated relational plan is faster — the cost of generality.")
}

func mustText(l ssd.Label) string {
	s, ok := l.Text()
	if !ok {
		panic("expected string label")
	}
	return s
}

func decodeResult(res *ssd.Graph) *relstore.Relation {
	wrapped := ssd.New()
	wrapped.AddEdge(wrapped.Root(), ssd.Sym("out"), wrapped.Graft(res, res.Root()))
	db, err := relstore.DecodeRelational(wrapped)
	if err != nil {
		panic(err)
	}
	return db["out"]
}

// ---------------------------------------------------------------------------
// E6: restructuring — memoized GExt vs tree unfolding

func runE6Restructure(scale int) {
	t := newTable("input", "nodes", "op", "GExt (memoized)", "tree unfolding", "note")
	relabel := func(l ssd.Label, _, _ ssd.NodeID, _ *ssd.Graph) unql.Action {
		if s, ok := l.Symbol(); ok && s == "Director" {
			return unql.RelabelTo(ssd.Sym("DirectedBy"))
		}
		return unql.Keep(l)
	}

	// Acyclic movie DB without references: both succeed; compare times.
	cfg := workload.DefaultMovieConfig(2000 * scale)
	cfg.RefProb = 0
	acyclic := workload.Movies(cfg)
	memoTime := timeIt(func() { unql.GExt(acyclic, relabel) })
	treeTime := timeIt(func() {
		if _, err := unql.GExtTree(acyclic, relabel, 64); err != nil {
			panic(err)
		}
	})
	t.add("movies (acyclic)", acyclic.NumNodes(), "relabel Director", memoTime, treeTime, "both ok")

	// Shared DAG: tree unfolding is exponential; bound the depth instead of
	// waiting. 2^26 paths through 26 shared diamonds.
	dag := ssd.New()
	cur := dag.Root()
	depth := 22
	for i := 0; i < depth; i++ {
		next := dag.AddNode()
		dag.AddEdge(cur, ssd.Sym("L"), next)
		dag.AddEdge(cur, ssd.Sym("R"), next)
		cur = next
	}
	dag.AddLeaf(cur, ssd.Int(1))
	keep := func(l ssd.Label, _, _ ssd.NodeID, _ *ssd.Graph) unql.Action { return unql.Keep(l) }
	memoDag := timeIt(func() { unql.GExt(dag, keep) })
	treeDag := timeIt(func() { _, _ = unql.GExtTree(dag, keep, depth+2) })
	t.add(fmt.Sprintf("DAG (2^%d paths)", depth), dag.NumNodes(), "identity", memoDag, treeDag,
		"unfolding copies per path")

	// Cyclic movie DB: tree unfolding cannot terminate (depth bound hit);
	// GExt handles it.
	cyc := workload.Movies(workload.DefaultMovieConfig(1000 * scale))
	memoCyc := timeIt(func() { unql.GExt(cyc, relabel) })
	_, err := unql.GExtTree(cyc, relabel, 64)
	t.add("movies (cyclic refs)", cyc.NumNodes(), "relabel Director", memoCyc, "diverges",
		fmt.Sprintf("tree recursion: %v", err != nil))
	t.print()
	fmt.Println("  expectation: one-output-node-per-input-node (the paper's restriction for")
	fmt.Println("  well-definedness) keeps GExt linear; naive unfolding blows up or diverges.")
}
