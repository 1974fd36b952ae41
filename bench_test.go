// Benchmarks backing the experiment tables of EXPERIMENTS.md. Each
// Benchmark* group corresponds to one experiment id from DESIGN.md §2; the
// cmd/ssdbench tool prints the same comparisons as formatted tables with
// derived columns (speedups, sizes).
package repro

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/datalog"
	"repro/internal/decomp"
	"repro/internal/index"
	"repro/internal/mutate"
	"repro/internal/oracle"
	"repro/internal/pathexpr"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/unql"
	"repro/internal/workload"
)

// Shared fixtures, built once.
var (
	moviesBySize = map[int]*ssd.Graph{}
	webBySize    = map[int]*ssd.Graph{}
)

func movieDB(entries int) *ssd.Graph {
	if g, ok := moviesBySize[entries]; ok {
		return g
	}
	g := workload.Movies(workload.DefaultMovieConfig(entries))
	moviesBySize[entries] = g
	return g
}

func webDB(pages int) *ssd.Graph {
	if g, ok := webBySize[pages]; ok {
		return g
	}
	g := workload.Web(workload.WebConfig{Pages: pages, OutLinks: 3, Seed: 7})
	webBySize[pages] = g
	return g
}

var movieSizes = []int{500, 5000, 25000}

// ---------------------------------------------------------------------------
// E1 / Figure 1: the paper's queries on the figure database.

func BenchmarkFig1Queries(b *testing.B) {
	g := workload.Fig1(false)
	queries := map[string]string{
		"titles":     `select T from DB.Entry.Movie.Title T`,
		"allen":      `select {Title: T} from DB.Entry.Movie M, M.Title T, M.(!Movie)* A where A = "Allen"`,
		"both-casts": `select {Name: %N} from DB.Entry._.Cast.(isint|Credit.Actors|Special-Guests)? C, C.%N L where isstring(%N)`,
	}
	for name, src := range queries {
		q := query.MustParse(src)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query.Eval(q, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlannedVsNaive ablates the planned engine against the reference
// evaluator (internal/oracle) over the E1 (path-heavy select-from-where) and
// E2 (browsing) workloads. The planned engine's flat-slot executor must
// show a large allocs/op reduction on the E1 path-heavy query — that is the
// refactor's whole point — and the index-seek access path should dominate
// on the E2 browsing shape.
func BenchmarkPlannedVsNaive(b *testing.B) {
	workloads := []struct{ name, src string }{
		{"e1-path-heavy", `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`},
		{"e1-fixed-path", `select T from DB.Entry.Movie.Title T`},
		{"e2-browse-seek", `select X from DB._*.Episode X`},
	}
	for _, size := range []int{500, 5000} {
		g := movieDB(size)
		ix := index.BuildLabelIndex(g)
		for _, w := range workloads {
			q := query.MustParse(w.src)
			b.Run(fmt.Sprintf("naive/%s/entries=%d", w.name, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := oracle.Eval(q, g, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			// Plan plus run per iteration, like the naive side's one call.
			planned := func(b *testing.B, po query.PlanOptions) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p, err := query.NewPlan(q, g, po)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := p.EvalGraphCtx(nil, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.Run(fmt.Sprintf("planned/%s/entries=%d", w.name, size), func(b *testing.B) {
				planned(b, query.PlanOptions{})
			})
			b.Run(fmt.Sprintf("planned-indexed/%s/entries=%d", w.name, size), func(b *testing.B) {
				planned(b, query.PlanOptions{Label: ix})
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E2: browsing queries — scan vs value index.

func BenchmarkBrowsingScan(b *testing.B) {
	for _, size := range movieSizes {
		g := movieDB(size)
		pred := pathexpr.CmpPred{Op: pathexpr.OpGT, Rhs: ssd.Int(65536)}
		b.Run(fmt.Sprintf("ints-gt-2_16/entries=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				index.ScanGraph(g, pred)
			}
		})
	}
}

func BenchmarkBrowsingIndexed(b *testing.B) {
	for _, size := range movieSizes {
		g := movieDB(size)
		ix := index.BuildValueIndex(g)
		b.Run(fmt.Sprintf("ints-gt-2_16/entries=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.Compare(pathexpr.OpGT, ssd.Int(65536))
			}
		})
	}
}

func BenchmarkBrowsingIndexBuild(b *testing.B) {
	for _, size := range movieSizes {
		g := movieDB(size)
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				index.BuildValueIndex(g)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E3: path queries — NFA product vs lazy-DFA vs DataGuide.

var e3Queries = map[string]string{
	"fixed-path": "Entry.Movie.Title._",
	"deep-value": `_*."Bogart"`,
	"both-casts": "Entry._.Cast.(isint|Credit.Actors|Special-Guests)._",
}

func BenchmarkPathQueryNFA(b *testing.B) {
	for _, size := range movieSizes {
		g := movieDB(size)
		for name, src := range e3Queries {
			b.Run(fmt.Sprintf("%s/entries=%d", name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					au := pathexpr.MustCompile(src)
					au.EvalNFA(g, g.Root())
				}
			})
		}
	}
}

func BenchmarkPathQueryLazyDFA(b *testing.B) {
	for _, size := range movieSizes {
		g := movieDB(size)
		for name, src := range e3Queries {
			b.Run(fmt.Sprintf("%s/entries=%d", name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					au := pathexpr.MustCompile(src)
					au.Eval(g, g.Root())
				}
			})
		}
	}
}

func BenchmarkPathQueryDataGuide(b *testing.B) {
	for _, size := range movieSizes {
		g := movieDB(size)
		guide := dataguide.MustBuild(g)
		for name, src := range e3Queries {
			b.Run(fmt.Sprintf("%s/entries=%d", name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					guide.Eval(pathexpr.MustCompile(src))
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E4: datalog — naive vs semi-naive.

var reachProg = datalog.MustParseProgram(`
	reach(X) :- root(X).
	reach(Y) :- reach(X), edge(X, _, Y).`)

func BenchmarkDatalogNaive(b *testing.B) {
	for _, pages := range []int{200, 1000} {
		g := webDB(pages)
		b.Run(fmt.Sprintf("web/pages=%d", pages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datalog.NewEngine(g).Run(context.Background(), reachProg, datalog.Naive); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDatalogSemiNaive(b *testing.B) {
	for _, pages := range []int{200, 1000} {
		g := webDB(pages)
		b.Run(fmt.Sprintf("web/pages=%d", pages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datalog.NewEngine(g).Run(context.Background(), reachProg, datalog.SemiNaive); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDatalogChain(b *testing.B) {
	chain := ssd.New()
	cur := chain.Root()
	for i := 0; i < 300; i++ {
		cur = chain.AddLeaf(cur, ssd.Sym("next"))
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = datalog.NewEngine(chain).Run(context.Background(), reachProg, datalog.Naive)
		}
	})
	b.Run("seminaive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = datalog.NewEngine(chain).Run(context.Background(), reachProg, datalog.SemiNaive)
		}
	})
}

// ---------------------------------------------------------------------------
// E5: relational algebra vs query language on the encoding.

func BenchmarkRelEquivalence(b *testing.B) {
	rdb := workload.Relational(1000, 101, 3)
	g := relstore.EncodeRelational(rdb)
	movies, directors := rdb["movies"], rdb["directors"]
	b.Run("ra-select-project", func(b *testing.B) {
		someDirector := movies.Rows()[0][movies.Col("director")]
		for i := 0; i < b.N; i++ {
			relstore.Project(relstore.SelectEq(movies, "director", someDirector), "title")
		}
	})
	b.Run("query-select-project", func(b *testing.B) {
		someDirector := movies.Rows()[0][movies.Col("director")]
		s, _ := someDirector.Text()
		q := query.MustParse(fmt.Sprintf(`
			select {tuple: {title: T}}
			from DB.movies.tuple R, R.title T, R.director D
			where D = %q`, s))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := query.Eval(q, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ra-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			relstore.Project(relstore.Join(movies, directors), "title", "born")
		}
	})
	b.Run("query-join", func(b *testing.B) {
		q := query.MustParse(`
			select {tuple: {title: T, born: B}}
			from DB.movies.tuple R, R.title T, R.director D,
			     DB.directors.tuple S, S.director D2, S.born B
			where D = D2`)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := query.Eval(q, g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E6: restructuring — memoized GExt vs tree unfolding.

func relabelDirector(l ssd.Label, _, _ ssd.NodeID, _ *ssd.Graph) unql.Action {
	if s, ok := l.Symbol(); ok && s == "Director" {
		return unql.RelabelTo(ssd.Sym("DirectedBy"))
	}
	return unql.Keep(l)
}

func BenchmarkRestructureGExt(b *testing.B) {
	cfg := workload.DefaultMovieConfig(5000)
	cfg.RefProb = 0
	g := workload.Movies(cfg)
	b.Run("acyclic-5k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			unql.GExt(g, relabelDirector)
		}
	})
	cyc := movieDB(5000)
	b.Run("cyclic-5k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			unql.GExt(cyc, relabelDirector)
		}
	})
}

func BenchmarkRestructureTreeUnfold(b *testing.B) {
	cfg := workload.DefaultMovieConfig(5000)
	cfg.RefProb = 0
	g := workload.Movies(cfg)
	b.Run("acyclic-5k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := unql.GExtTree(g, relabelDirector, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E7: decomposition — serial vs parallel site evaluation.

func BenchmarkDecomposition(b *testing.B) {
	g := movieDB(25000)
	src := `_*."Bogart"`
	for _, sites := range []int{1, 2, 4, 8} {
		p := decomp.PartitionBFS(g, sites)
		b.Run(fmt.Sprintf("serial/sites=%d", sites), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				decomp.Eval(g, pathexpr.MustCompile(src), p, false)
			}
		})
		b.Run(fmt.Sprintf("parallel/sites=%d", sites), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				decomp.Eval(g, pathexpr.MustCompile(src), p, true)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E8: schema pruning.

const movieSchemaSrc = `
{Entry: #e{Movie: {Title: {isstring},
                   Cast: {isint: {isstring},
                          Credit: {Actors: {isstring}}},
                   Director: {isstring},
                   References: #e,
                   Is-referenced-in: #e},
           TV-Show: {Title: {isstring},
                     Cast: {Special-Guests: {isstring}},
                     Episode: {isint},
                     References: #e,
                     Is-referenced-in: #e}}}`

func BenchmarkSchemaPruning(b *testing.B) {
	g := movieDB(25000)
	s := schema.MustParse(movieSchemaSrc)
	queries := map[string]string{
		"selective":  "Entry.TV-Show.Episode._",
		"impossible": "Entry.Movie.Budget._",
	}
	for name, src := range queries {
		b.Run("plain/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pathexpr.MustCompile(src).Eval(g, g.Root())
			}
		})
		b.Run("pruned/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Prune(pathexpr.MustCompile(src)).Eval(g, g.Root())
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E9: DataGuide construction.

func BenchmarkDataGuideBuild(b *testing.B) {
	b.Run("movies-regular-5k", func(b *testing.B) {
		g := movieDB(5000)
		for i := 0; i < b.N; i++ {
			dataguide.MustBuild(g)
		}
	})
	b.Run("acedb-trees", func(b *testing.B) {
		g := workload.ACeDB(workload.BioConfig{Objects: 200, MaxDepth: 10, Fanout: 3, Seed: 11})
		for i := 0; i < b.N; i++ {
			dataguide.MustBuild(g)
		}
	})
	b.Run("web-irregular-300", func(b *testing.B) {
		g := webDB(300)
		for i := 0; i < b.N; i++ {
			if _, ok := dataguide.Build(g, 2_000_000); !ok {
				b.Fatal("cap hit")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E10: storage clustering (page faults are the figure of merit; this bench
// reports ns/op for the same traversals so regressions surface).

func BenchmarkStorageScan(b *testing.B) {
	g := movieDB(5000)
	for _, c := range []storage.Clustering{storage.ClusterDFS, storage.ClusterRandom} {
		b.Run(c.String(), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "pages.ssdp")
			if err := storage.WritePageFile(path, g, c, 1024); err != nil {
				b.Fatal(err)
			}
			ps, err := storage.OpenPageFile(path, 32*1024)
			if err != nil {
				b.Fatal(err)
			}
			defer ps.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ssd.ReachableFrom(ps, ps.Root())
			}
			st := ps.Stats()
			b.ReportMetric(float64(st.Misses)/float64(b.N), "faults/op")
		})
	}
}

// BenchmarkPagedVsInMemory runs the E1 path-heavy query through the planned
// engine against the in-memory graph and against the paged store with a warm
// pool large enough to hold the working set. The acceptance bar is paged
// within 2x of in-memory: the buffer pool's lock/lookup overhead must stay a
// constant factor, not change the complexity class.
func BenchmarkPagedVsInMemory(b *testing.B) {
	g := movieDB(5000)
	q := query.MustParse(`select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`)
	run := func(b *testing.B, st ssd.GraphStore) {
		b.ReportAllocs()
		p, err := query.NewPlan(q, st, query.PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := p.EvalGraphCtx(nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("in-memory", func(b *testing.B) { run(b, g) })
	b.Run("paged-warm", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "pages.ssdp")
		if err := storage.WritePageFile(path, g, storage.ClusterDFS, storage.DefaultPageSize); err != nil {
			b.Fatal(err)
		}
		ps, err := storage.OpenPageFile(path, storage.DefaultPoolBytes)
		if err != nil {
			b.Fatal(err)
		}
		defer ps.Close()
		// Warm the pool: one full scan faults every page in.
		ssd.ReachableFrom(ps, ps.Root())
		b.ResetTimer()
		run(b, ps)
	})
}

func BenchmarkStorageCodec(b *testing.B) {
	g := movieDB(5000)
	data := storage.Encode(g)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			storage.Encode(g)
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := storage.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E11: bisimulation — naive vs incremental refinement.

func BenchmarkBisimNaive(b *testing.B) {
	b.Run("movies-5k", func(b *testing.B) {
		g := movieDB(5000)
		for i := 0; i < b.N; i++ {
			bisim.ClassesNaive(g)
		}
	})
	b.Run("chain-2k", func(b *testing.B) {
		g := chainGraph(2000)
		for i := 0; i < b.N; i++ {
			bisim.ClassesNaive(g)
		}
	})
}

func BenchmarkBisimIncremental(b *testing.B) {
	b.Run("movies-5k", func(b *testing.B) {
		g := movieDB(5000)
		for i := 0; i < b.N; i++ {
			bisim.Classes(g)
		}
	})
	b.Run("chain-2k", func(b *testing.B) {
		g := chainGraph(2000)
		for i := 0; i < b.N; i++ {
			bisim.Classes(g)
		}
	})
}

// BenchmarkCanonicalize times canonical answers on Movies(20000): exec is a
// statement whose answer copies every entry (Stmt.Exec drains the rows and
// canonicalizes the result), canonicalize is bisim.Canonicalize of the
// database itself.
func BenchmarkCanonicalize(b *testing.B) {
	g := movieDB(20000)
	b.Run("exec", func(b *testing.B) {
		s, err := core.FromGraph(g).Prepare(`select {E: E} from DB.Entry E`)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("canonicalize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bisim.Canonicalize(g)
		}
	})
}

func chainGraph(n int) *ssd.Graph {
	g := ssd.New()
	cur := g.Root()
	for i := 0; i < n; i++ {
		cur = g.AddLeaf(cur, ssd.Sym("next"))
	}
	return g
}

// ---------------------------------------------------------------------------
// Incremental vs full-rebuild maintenance of derived structures. Each
// iteration applies one single-edge batch (plus its fresh leaf) through the
// write path, then brings the label index, value index and DataGuide up to
// date — either by Apply/ApplyDelta from the batch's delta or by rebuilding
// from the new graph.

func BenchmarkIncrementalVsRebuild(b *testing.B) {
	setup := func(b *testing.B) (*ssd.Graph, *index.LabelIndex, *index.ValueIndex, *dataguide.Guide, []ssd.NodeID) {
		b.Helper()
		g := workload.Movies(workload.DefaultMovieConfig(5000)) // private: mutated below
		var sources []ssd.NodeID
		for _, e := range g.Out(g.Root()) {
			sources = append(sources, e.To)
		}
		return g, index.BuildLabelIndex(g), index.BuildValueIndex(g), dataguide.MustBuild(g), sources
	}
	oneEdgeBatch := func(g *ssd.Graph, src ssd.NodeID) (*ssd.Graph, mutate.Result) {
		bt := mutate.NewBatch(g)
		tag := bt.AddNode()
		leaf := bt.AddNode()
		if err := bt.AddEdge(src, ssd.Sym("Tag"), tag); err != nil {
			panic(err)
		}
		if err := bt.AddEdge(tag, ssd.Str("tag-value"), leaf); err != nil {
			panic(err)
		}
		g2, res, err := mutate.ApplyCOW(g, bt)
		if err != nil {
			panic(err)
		}
		return g2, res
	}

	b.Run("incremental", func(b *testing.B) {
		g, lx, vx, guide, sources := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var res mutate.Result
			g, res = oneEdgeBatch(g, sources[i%len(sources)])
			lx = lx.Apply(res.Delta)
			vx = vx.Apply(res.Delta)
			ng, ok := guide.ApplyDelta(g, res.Delta, 0)
			if !ok {
				// Garbage-cap fallback: the amortized cost of the design.
				ng = dataguide.MustBuild(g)
			}
			guide = ng
		}
		if len(vx.Exact(ssd.Str("tag-value"))) != b.N {
			b.Fatal("maintained value index lost updates")
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		g, lx, vx, guide, sources := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, _ = oneEdgeBatch(g, sources[i%len(sources)])
			lx = index.BuildLabelIndex(g)
			vx = index.BuildValueIndex(g)
			guide = dataguide.MustBuild(g)
		}
		_, _, _ = lx, vx, guide
	})
}

// ---------------------------------------------------------------------------
// The statement lifecycle. Prepared re-execution must beat one-shot
// parse+plan+run (no re-lex/re-parse/re-plan); rows-streaming is the
// per-row cost of the Rows cursor.

func BenchmarkPreparedVsOneShot(b *testing.B) {
	g := movieDB(2000)
	const litSrc = `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`
	const paramSrc = `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`

	b.Run("oneshot-parse-plan-exec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := query.Parse(litSrc)
			if err != nil {
				b.Fatal(err)
			}
			p, err := query.NewPlan(q, g, query.PlanOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.EvalGraphCtx(nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared-exec", func(b *testing.B) {
		db := core.FromGraph(g)
		s, err := db.Prepare(paramSrc)
		if err != nil {
			b.Fatal(err)
		}
		who := core.P("who", "Allen")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(context.Background(), who); err != nil {
				b.Fatal(err)
			}
		}
	})

	const rowsSrc = `select T from DB.Entry.Movie M, M.Title T`
	b.Run("rows-streaming", func(b *testing.B) {
		db := core.FromGraph(g)
		s, err := db.Prepare(rowsSrc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := s.Query(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for rows.Next() {
				_ = rows.Env()
				n++
			}
			rows.Close()
			if n == 0 {
				b.Fatal("no rows")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Instrumentation overhead: the same streaming query with tracing off
// (production hot path — must stay allocation-light and within a few
// percent of the pre-instrumentation executor) and with a trace attached
// (the ?trace=1 / slow-query path, which pays a timestamp per pulled row).

func BenchmarkInstrumentationOverhead(b *testing.B) {
	g := movieDB(2000)
	const src = `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = "Allen"`
	run := func(b *testing.B, traced bool) {
		db := core.FromGraph(g)
		s, err := db.Prepare(src)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var rows *core.Rows
			if traced {
				rows, err = s.QueryTraced(context.Background(), new(core.QueryTrace))
			} else {
				rows, err = s.Query(context.Background())
			}
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for rows.Next() {
				n++
			}
			rows.Close()
			if n == 0 {
				b.Fatal("no rows")
			}
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}

// ---------------------------------------------------------------------------
// Planning with and without maintained statistics on a skewed distribution.
// Fed only a label scan, the cost model runs the wide Reviews.Score atom
// before Title; with statistics (distinct-source counts, the numeric
// histogram) it runs Title first and Score last. The two sub-benchmarks run
// the exact same query on the exact same graph through the one planner —
// only its input, and so its atom order, differs.

func BenchmarkCostBasedVsNoStats(b *testing.B) {
	g := workload.Skewed(workload.DefaultSkewConfig(2000))
	st := stats.Build(g)
	q := query.MustParse(`
		select T
		from DB.Entry.Movie M,
		     M.Reviews.Score S,
		     M.Tag X,
		     M.Title T
		where S > 0 and X = "needle"`)
	run := func(b *testing.B, po query.PlanOptions) {
		b.Helper()
		p, err := query.NewPlan(q, g, po)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur, err := p.Cursor(nil, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for cur.Next() {
				n++
			}
			if err := cur.Err(); err != nil {
				b.Fatal(err)
			}
			cur.Close()
			if n == 0 {
				b.Fatal("no rows")
			}
		}
	}
	b.Run("no-stats", func(b *testing.B) { run(b, query.PlanOptions{}) })
	b.Run("cost-based", func(b *testing.B) { run(b, query.PlanOptions{Stats: st}) })
}

// BenchmarkStatsMaintenance prices the statistics lifecycle: the full
// one-pass build against the delta Apply the commit path runs, beside the
// other per-commit costs on the served dataset, Movies(20000). apply-entry
// is one insert-sized delta: a batch that copies the first Entry subtree
// under the root (15 edges), applied through mutate.ApplyCOW. apply-relabel
// is the write mix's relabel shape, one title value renamed. label-apply
// folds the insert delta into the label index, clone-shared is the graph
// copy every ApplyCOW starts with, and apply-cow-insert is the whole
// ApplyCOW of the write mix's 9-node insert (one node table, sized for the
// batch, plus the root's privatized edge list).
func BenchmarkStatsMaintenance(b *testing.B) {
	b.Run("build", func(b *testing.B) {
		g := movieDB(5000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stats.Build(g)
		}
	})
	b.Run("apply-entry", func(b *testing.B) {
		g := movieDB(20000)
		st := stats.Build(g)
		d := copyEntryDelta(b, g)
		if len(d.Added) != 15 {
			b.Fatalf("entry copy added %d edges, want 15", len(d.Added))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Apply(d)
		}
	})
	b.Run("apply-relabel", func(b *testing.B) {
		g := movieDB(20000)
		st := stats.Build(g)
		d := relabelTitleDelta(b, g)
		if len(d.Added) != 1 || len(d.Removed) != 1 {
			b.Fatalf("title relabel: %d added, %d removed, want 1 and 1", len(d.Added), len(d.Removed))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Apply(d)
		}
	})
	b.Run("label-apply", func(b *testing.B) {
		g := movieDB(20000)
		ix := index.BuildLabelIndex(g)
		d := copyEntryDelta(b, g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Apply(d)
		}
	})
	b.Run("clone-shared", func(b *testing.B) {
		g := movieDB(20000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.CloneShared(0)
		}
	})
	b.Run("apply-cow-insert", func(b *testing.B) {
		g := movieDB(20000)
		bt, err := mutate.ParseScript(`addnode; addnode; addnode; addnode; addnode; addnode; addnode; addnode; addnode
addedge 0 Entry $0
addedge $0 Movie $1
addedge $1 Title $2
addedge $2 "A Title" $3
addedge $1 Cast $4
addedge $4 1 $5
addedge $5 "Allen" $6
addedge $1 Director $7
addedge $7 "Allen" $8`, g)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := mutate.ApplyCOW(g, bt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// relabelTitleDelta commits, copy-on-write, the write mix's relabel shape —
// `relabel <title node> "<title>" "<title> r"` on g's first movie title —
// and returns its delta.
func relabelTitleDelta(b *testing.B, g *ssd.Graph) ssd.Delta {
	b.Helper()
	entry := g.LookupFirst(g.Root(), ssd.Sym("Entry"))
	title := g.LookupFirst(g.LookupFirst(entry, ssd.Sym("Movie")), ssd.Sym("Title"))
	if title == ssd.InvalidNode || len(g.Out(title)) != 1 {
		b.Fatal("first Entry has no movie title value")
	}
	old := g.Out(title)[0].Label
	text, _ := old.Text()
	bt := mutate.NewBatch(g)
	if err := bt.Relabel(title, old, ssd.Str(text+" r")); err != nil {
		b.Fatal(err)
	}
	_, res, err := mutate.ApplyCOW(g, bt)
	if err != nil {
		b.Fatal(err)
	}
	return res.Delta
}

// copyEntryDelta commits, copy-on-write, a batch that copies the subgraph
// under g's first root Entry edge to a fresh Entry, and returns its delta.
func copyEntryDelta(b *testing.B, g *ssd.Graph) ssd.Delta {
	b.Helper()
	entries := g.Lookup(g.Root(), ssd.Sym("Entry"))
	if len(entries) == 0 {
		b.Fatal("no Entry under the root")
	}
	bt := mutate.NewBatch(g)
	copies := map[ssd.NodeID]ssd.NodeID{}
	var copyNode func(n ssd.NodeID) ssd.NodeID
	copyNode = func(n ssd.NodeID) ssd.NodeID {
		if c, ok := copies[n]; ok {
			return c
		}
		c := bt.AddNode()
		copies[n] = c
		for _, e := range g.Out(n) {
			if err := bt.AddEdge(c, e.Label, copyNode(e.To)); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	if err := bt.AddEdge(g.Root(), ssd.Sym("Entry"), copyNode(entries[0])); err != nil {
		b.Fatal(err)
	}
	_, res, err := mutate.ApplyCOW(g, bt)
	if err != nil {
		b.Fatal(err)
	}
	return res.Delta
}

// BenchmarkServeQuery prices one POST /query per read class of bench/ssdload
// (same statements, same Movies(20000) data) end to end through an httptest
// server: B/op and allocs/op cover the handler, the engine underneath and the
// HTTP client that drains the NDJSON body; rows/op turns allocs/op into
// allocations per result row.
func BenchmarkServeQuery(b *testing.B) {
	srv := httptest.NewServer(server.New(core.FromGraph(movieDB(20000)), server.Config{}).Handler())
	defer srv.Close()
	for _, c := range []struct{ name, body string }{
		{"sel", `{"query":"select {T: T} from DB.Entry.TV-Show S, S.Title T, S.Episode E where E > $lo","params":{"lo":1972500}}`},
		{"path", `{"query":"path: Entry.Movie.References.Movie.Director._"}`},
		{"wide", `{"query":"select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who","params":{"who":"\"Allen\""}}`},
	} {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer // reused, so the client side adds no per-row garbage
			post := func() int {
				resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(c.body))
				if err != nil {
					b.Fatal(err)
				}
				defer resp.Body.Close()
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				body := buf.Bytes()
				if err != nil || !bytes.HasSuffix(body, []byte("}\n")) || !bytes.Contains(body, []byte(`{"done":true`)) {
					b.Fatalf("bad response (err %v): %.200s", err, body)
				}
				return bytes.Count(body, []byte("\n")) - 1
			}
			rows := post() // warm the statement cache and the plan pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
