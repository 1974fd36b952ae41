package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/mutate"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

// FuzzEngines holds every execution mode of a select statement to one
// contract: its answer, canonicalized, is byte-identical to the reference
// evaluator's (oracle.Eval) on the same snapshot. The modes are
//
//   - the serial plan under each planner input TestEngineGolden pins: bare,
//     label index, DataGuide, index+guide, and index+statistics;
//   - a plan over a page store of 128-byte pages with a two-page pool,
//     under the label index and statistics, as statements plan;
//   - one PrepareCached statement, reused across commits (pooled plans,
//     incrementally maintained index, statistics and DataGuide), run twice
//     on every snapshot: the second run, under freshly drawn parameter
//     values, recycles the first one's executor (dedup node sets, pooled
//     traversals, materialized scans);
//   - a follower Database fed the same batches as stream frames through
//     ApplyReplicated.
//
// seed (its bytes folded into an int64) drives a PRNG that draws a graph
// of size nodes besides the root, size folded into 1–12 (cycles and
// shared subtrees included); a statement from the query grammar (regex
// steps, %label and @path variables, $parameters, where with exists, not
// and comparisons); values for its parameters; and up to three mutation
// batches. The contract is checked before the first batch and after each.
//
// fixture, when it names one (1 onwards, wrapping), adds a fixed case: a
// statement the older fixed-query differential test ran, or an engine
// fixture from internal/query/testdata/engine_cases.json with its graph and
// parameter values. The seed corpus holds every fixture, each
// differential-test statement over its 30 random graphs, and drawn cases
// of every size. The fuzzer mutates only numbers and seed bytes: string
// arguments would spend its coverage signal on the parsers.
//
//	go test -run=NONE -fuzz=FuzzEngines -fuzztime=20s ./internal/core
func FuzzEngines(f *testing.F) {
	fixtures := engineFixtures(f)
	for seed := int64(0); seed < 30; seed++ {
		for i := range diffQueries {
			f.Add(uint8(1+i), seedBytes(seed), uint8(12))
		}
	}
	for i := len(diffQueries); i < len(fixtures); i++ {
		f.Add(uint8(1+i), seedBytes(0), uint8(12))
	}
	for seed := int64(0); seed < 48; seed++ {
		f.Add(uint8(0), seedBytes(seed), uint8(1+seed%12))
	}
	f.Fuzz(func(t *testing.T, fixture uint8, seed []byte, size uint8) {
		var fx engineFixture
		if n := int(fixture) % (len(fixtures) + 1); n > 0 {
			fx = fixtures[n-1]
		}
		checkEngines(t, fx, seed, size)
	})
}

// checkEngines is FuzzEngines' body: a drawn graph (or the fixture's) and
// commit sequence; a drawn statement and the fixture's; every mode after
// every batch.
func checkEngines(t *testing.T, fx engineFixture, seed []byte, size uint8) {
	var s [8]byte
	for i, b := range seed {
		s[i%8] ^= b
	}
	r := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(s[:]))))
	// Redrawn parameter values come from their own stream, so the graph,
	// statements and batches a seed draws stay what they were.
	redraw := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(s[:])) ^ 0x5eed))
	g := randGraph(r, 1+int(size-1)%12)
	if fx.Graph != nil {
		g = fx.Graph
	}
	drawn := genStmt(r)
	leader, follower := FromGraph(g), FromGraph(g)
	var stmts []*engineStmt
	// The grammar admits a few statements the planner refuses; skip those.
	if s, err := prepareEngineStmt(t, r, leader, follower, drawn, nil); err == nil {
		stmts = append(stmts, s)
	}
	if fx.Query != "" {
		s, err := prepareEngineStmt(t, r, leader, follower, fx.Query, fx.Params)
		if err != nil {
			t.Fatalf("prepare %q: %v", fx.Query, err)
		}
		stmts = append(stmts, s)
	}
	pages := filepath.Join(t.TempDir(), "pages.ssdp")
	for batch := 0; ; batch++ {
		snap := leader.Graph()
		ins := plannerInputs(snap)
		ps := openPaged(t, pages, snap)
		for _, s := range stmts {
			s.check(t, batch, snap, ins, ps, redraw)
		}
		ps.Close()
		if batch == 3 || r.Intn(4) == 0 {
			return
		}
		b := randBatch(r, leader)
		if err := leader.Commit(b); err != nil {
			t.Fatalf("batch %d: commit: %v", batch+1, err)
		}
		if err := replicate(follower, b); err != nil {
			t.Fatalf("batch %d: follower: %v", batch+1, err)
		}
	}
}

// engineStmt is one statement under test: parsed for the oracle and the
// plans, prepared once on the leader (cached) and once on the follower.
type engineStmt struct {
	src               string
	q                 *query.Query
	vals              map[string]ssd.Label
	args              []Param
	prepared, replica *Stmt
}

// prepareEngineStmt parses src and prepares it on both databases; err is
// the leader's refusal to prepare it.
func prepareEngineStmt(t *testing.T, r *rand.Rand, leader, follower *Database, src string, params map[string]ssd.Label) (*engineStmt, error) {
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("statement %q does not parse: %v", src, err)
	}
	s := &engineStmt{src: src, q: q, vals: paramValues(r, q, params)}
	for name, v := range s.vals {
		s.args = append(s.args, P(name, v))
	}
	if s.prepared, err = leader.PrepareCached(src); err != nil {
		return nil, err
	}
	if s.replica, err = follower.Prepare(src); err != nil {
		t.Fatalf("follower prepare %q: %v", src, err)
	}
	return s, nil
}

// check compares every mode's answer over snap with the oracle's; ins are
// snap's planner inputs and ps is snap laid out in pages. The cached
// statement then runs again under values drawn from redraw.
func (s *engineStmt) check(t *testing.T, batch int, snap *ssd.Graph, ins []plannerInput, ps *storage.PageStore, redraw *rand.Rand) {
	t.Helper()
	compare := func(mode string, vals map[string]ssd.Label, want, got *ssd.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("batch %d, %s: %q: %v", batch, mode, s.src, err)
		}
		if gs, ws := ssd.FormatRoot(got), ssd.FormatRoot(want); gs != ws {
			t.Fatalf("batch %d, %s differs from the oracle on %q %v over %s\n got: %s\nwant: %s",
				batch, mode, s.src, vals, ssd.FormatRoot(snap), gs, ws)
		}
	}
	if want := s.oracleAnswer(t, snap, s.vals); want != nil {
		for _, in := range ins {
			got, err := evalPlan(s.q, snap, in.po, s.vals)
			compare("serial/"+in.name, s.vals, want, got, err)
		}
		got, err := evalPlan(s.q, ps, ins[len(ins)-1].po, s.vals) // index+stats, as statements plan
		compare("paged", s.vals, want, got, err)
		got, err = drainStmt(s.q, s.prepared, s.args)
		compare("prepared", s.vals, want, got, err)
		got, err = drainStmt(s.q, s.replica, s.args)
		compare("follower", s.vals, want, got, err)
	}
	vals := paramValues(redraw, s.q, nil)
	if want := s.oracleAnswer(t, snap, vals); want != nil {
		var args []Param
		for name, v := range vals {
			args = append(args, P(name, v))
		}
		got, err := drainStmt(s.q, s.prepared, args)
		compare("prepared/redrawn", vals, want, got, err)
	}
}

// oracleAnswer is the reference answer over snap under vals, or nil when the
// statement binds more than maxEngineRows rows there: a drawn cross product
// can bind millions, whose answer takes seconds to canonicalize in every
// mode.
func (s *engineStmt) oracleAnswer(t *testing.T, snap *ssd.Graph, vals map[string]ssd.Label) *ssd.Graph {
	t.Helper()
	sq, err := oracle.Subst(s.q, vals)
	if err != nil {
		t.Fatalf("oracle %q: %v", s.src, err)
	}
	if rows, err := oracle.Rows(sq, snap, maxEngineRows+1); err == nil && len(rows) > maxEngineRows {
		return nil
	}
	want, err := oracle.Eval(s.q, snap, vals)
	if err != nil {
		t.Fatalf("oracle %q: %v", s.src, err)
	}
	return want
}

// maxEngineRows bounds the binding rows of a checked answer. No fixture
// comes near it; the corpus's kept cross product (fe9d1cf9f247af49) binds
// 31–51k rows per snapshot and stays skipped, since checking it would take
// about 10 s.
const maxEngineRows = 10000

// seedBytes encodes a PRNG seed as FuzzEngines' seed argument. The seed is
// bytes, not an integer, because the fuzzer mutates an integer only by
// small steps, which would keep it near the corpus seeds; a byte mutation
// jumps anywhere.
func seedBytes(seed int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(seed)) }

// diffQueries are fixed statements over randGraph's label alphabet:
// projections, label and path variables, joins, exists and disjunction.
var diffQueries = []string{
	`select X from DB.a X`,
	`select X from DB._*.rare X`,
	`select X from DB.a.b X`,
	`select X from DB.a.b.c X`,
	`select {L: %L} from DB.%L X, X.%L Y`,
	`select {L: %L} from DB.a A, A.%L V, DB.b B, B.%L W`,
	`select X from DB._* X where exists X.%L.%L`,
	`select X from DB._* X where not exists X.a`,
	`select {P: @P} from DB.@P X where pathlen(@P) = 2 and X = 1`,
	`select X from DB._* X where X = 7 or exists X.rare`,
	`select {T: Y} from DB._* X, X.(a|b)* Y where Y = 1`,
	`select X from DB.a X, X.b Y, Y.c Z where Z = 7`,
}

// engineFixture is a fixed case FuzzEngines adds to the drawn one: a
// statement, and for the engine fixtures a graph (nil: the drawn one) and
// values for the statement's parameters.
type engineFixture struct {
	Graph  *ssd.Graph
	Query  string
	Params map[string]ssd.Label
}

// engineFixtures lists diffQueries, the engine fixtures, and the
// benchmark's sel statement over a small movie database, whose plan seeks
// TV-Show and verifies Entry backward in every mode.
func engineFixtures(f testing.TB) []engineFixture {
	var out []engineFixture
	for _, src := range diffQueries {
		out = append(out, engineFixture{Query: src})
	}
	data, err := os.ReadFile(filepath.Join("..", "query", "testdata", "engine_cases.json"))
	if err != nil {
		f.Fatal(err)
	}
	var raw []struct {
		Graph, Query string
		Params       map[string]string // name -> label text
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		f.Fatal(err)
	}
	for _, c := range raw {
		fx := engineFixture{Graph: workload.Fig1(false), Query: c.Query, Params: map[string]ssd.Label{}}
		if c.Graph != "" {
			fx.Graph = ssd.MustParse(c.Graph)
		}
		for name, text := range c.Params {
			if fx.Params[name], err = ssd.ParseLabel(text); err != nil {
				f.Fatal(err)
			}
		}
		out = append(out, fx)
	}
	return append(out, engineFixture{
		Graph:  workload.Movies(workload.DefaultMovieConfig(30)),
		Query:  benchSel,
		Params: map[string]ssd.Label{"lo": ssd.Int(1_960_000)},
	})
}

// TestPagedModePlansBackward: FuzzEngines' fixtures reach backward index
// plans in the paged mode, not only in memory.
func TestPagedModePlansBackward(t *testing.T) {
	backward := 0
	for _, fx := range engineFixtures(t) {
		if fx.Graph == nil {
			continue
		}
		ps := openPaged(t, filepath.Join(t.TempDir(), "pages.ssdp"), fx.Graph)
		ins := plannerInputs(fx.Graph)
		p, err := query.NewPlan(query.MustParse(fx.Query), ps, ins[len(ins)-1].po)
		ps.Close()
		if err != nil {
			continue
		}
		for _, a := range p.Atoms() {
			if a.Access == query.AccessIndexBackward {
				backward++
				t.Logf("paged backward plan: %s", fx.Query)
			}
		}
	}
	if backward == 0 {
		t.Fatal("no fixture plans index-backward over the page store")
	}
}

// randLabels is the label alphabet of drawn graphs, statements and batches.
var randLabels = []ssd.Label{ssd.Sym("a"), ssd.Sym("b"), ssd.Sym("c"), ssd.Sym("rare"), ssd.Str("v"), ssd.Int(1), ssd.Int(7)}

// randGraph draws n nodes besides the root and 3n edges among them.
func randGraph(r *rand.Rand, n int) *ssd.Graph {
	g := ssd.New()
	first := g.AddNodes(n)
	nodes := []ssd.NodeID{g.Root()}
	for i := 0; i < n; i++ {
		nodes = append(nodes, first+ssd.NodeID(i))
	}
	for i := 0; i < n*3; i++ {
		from := nodes[r.Intn(len(nodes))]
		to := nodes[r.Intn(len(nodes))]
		g.AddEdge(from, randLabels[r.Intn(len(randLabels))], to)
	}
	g.Dedup()
	return g
}

// paramValues binds every parameter of q: to its value in given, or to
// one drawn from randLabels.
func paramValues(r *rand.Rand, q *query.Query, given map[string]ssd.Label) map[string]ssd.Label {
	vals := map[string]ssd.Label{}
	for _, name := range q.Params {
		v, ok := given[name]
		if !ok {
			v = randLabels[r.Intn(len(randLabels))]
		}
		vals[name] = v
	}
	return vals
}

// stmtGen draws a statement from the query grammar, tracking which
// variables are bound so most draws parse.
type stmtGen struct {
	r                    *rand.Rand
	trees, labels, paths []string
	params               int
}

func genStmt(r *rand.Rand) string {
	s := &stmtGen{r: r}
	var from []string
	for i := 0; i < 1+r.Intn(3); i++ {
		src := "DB"
		if len(s.trees) > 0 && r.Intn(2) == 0 {
			src = s.pick(s.trees)
		}
		var path string
		if src == "DB" && r.Intn(3) == 0 {
			path = s.accessShape()
		} else {
			path = s.path(true)
		}
		v := fmt.Sprintf("X%d", i)
		from = append(from, src+"."+path+" "+v)
		s.trees = append(s.trees, v)
	}
	out := "select " + s.template() + " from " + strings.Join(from, ", ")
	if r.Intn(3) > 0 {
		out += " where " + s.cond(2)
	}
	return out
}

func (s *stmtGen) pick(names []string) string { return names[s.r.Intn(len(names))] }

// accessShape draws a root path the planner may serve from the label index
// or the DataGuide instead of a forward walk: `_*.l` (index seek) or an
// exact label chain (backward scan, guide extent).
func (s *stmtGen) accessShape() string {
	labels := []string{"a", "b", "c", "rare", `"v"`, "1", "7"}
	if s.r.Intn(2) == 0 {
		return "_*." + s.pick(labels)
	}
	chain := []string{s.pick(labels)}
	for s.r.Intn(2) == 0 && len(chain) < 3 {
		chain = append(chain, s.pick(labels))
	}
	return strings.Join(chain, ".")
}

// atom is one label predicate of a regex step.
func (s *stmtGen) atom() string {
	return []string{"a", "b", "c", "rare", `"v"`, "1", "7", "_", "isint", "isstring"}[s.r.Intn(10)]
}

// path draws 1–3 steps; from-paths (binding) may bind variables and take
// parameters, exists-paths only join on label variables.
func (s *stmtGen) path(binding bool) string {
	var steps []string
	pathVar := false
	for i := 0; i < 1+s.r.Intn(3); i++ {
		switch k := s.r.Intn(10); {
		case k < 5:
			steps = append(steps, []string{
				s.atom(), s.atom(), "_*", "(" + s.atom() + "|" + s.atom() + ")",
				s.atom() + "*", "(" + s.atom() + "." + s.atom() + ")?",
			}[s.r.Intn(6)])
		case k < 7:
			name := fmt.Sprintf("L%d", len(s.labels))
			if len(s.labels) > 0 && s.r.Intn(2) == 0 {
				name = s.pick(s.labels) // a join on the label
			} else if binding {
				s.labels = append(s.labels, name)
			}
			steps = append(steps, "%"+name)
		case k < 8 && binding && !pathVar:
			pathVar = true
			name := fmt.Sprintf("P%d", len(s.paths))
			s.paths = append(s.paths, name)
			steps = append(steps, "@"+name)
		case k < 9 && binding:
			steps = append(steps, fmt.Sprintf("$s%d", s.params))
			s.params++
		default:
			steps = append(steps, s.atom())
		}
	}
	return strings.Join(steps, ".")
}

func (s *stmtGen) template() string {
	v := s.pick(s.trees)
	switch s.r.Intn(6) {
	case 0:
		return "{T: " + v + "}"
	case 1:
		if len(s.labels) > 0 {
			return "{%" + s.pick(s.labels) + ": " + v + "}"
		}
	case 2:
		if len(s.labels) > 0 {
			return "{%" + s.pick(s.labels) + "}"
		}
	case 3:
		if len(s.paths) > 0 {
			return "{At: @" + s.pick(s.paths) + "}"
		}
	}
	return v
}

func (s *stmtGen) cond(depth int) string {
	lit := []string{"a", "rare", `"v"`, "1", "7"}[s.r.Intn(5)]
	op := []string{"=", "!=", "<", ">="}[s.r.Intn(4)]
	switch k := s.r.Intn(9); {
	case k < 2 && depth > 0:
		return "(" + s.cond(depth-1) + []string{" and ", " or "}[s.r.Intn(2)] + s.cond(depth-1) + ")"
	case k < 3 && depth > 0:
		return "not " + s.cond(depth-1)
	case k < 5:
		return "exists " + s.pick(s.trees) + "." + s.path(false)
	case k < 6 && len(s.labels) > 0:
		return "%" + s.pick(s.labels) + " " + op + " " + lit
	case k < 7 && len(s.paths) > 0:
		return fmt.Sprintf("pathlen(@%s) %s %d", s.pick(s.paths), op, s.r.Intn(4))
	case k < 8:
		s.params++
		return fmt.Sprintf("%s %s $w%d", s.pick(s.trees), op, s.params)
	}
	return s.pick(s.trees) + " " + op + " " + lit
}

// randBatch draws 1–4 edits against db's current graph: new nodes hung
// off existing ones, edges added, deleted and relabeled, now and then a
// moved root. Deleting or relabeling an absent edge is a no-op.
func randBatch(r *rand.Rand, db *Database) *mutate.Batch {
	g := db.Graph()
	b := db.Begin()
	nodes := []ssd.NodeID{}
	for n := 0; n < g.NumNodes(); n++ {
		nodes = append(nodes, ssd.NodeID(n))
	}
	label := func() ssd.Label { return randLabels[r.Intn(len(randLabels))] }
	edge := func() (ssd.NodeID, ssd.Edge, bool) {
		from := nodes[r.Intn(len(nodes))]
		if int(from) >= g.NumNodes() || len(g.Out(from)) == 0 {
			return 0, ssd.Edge{}, false
		}
		out := g.Out(from)
		return from, out[r.Intn(len(out))], true
	}
	for i := 0; i < 1+r.Intn(4); i++ {
		switch r.Intn(9) {
		case 0, 1:
			n := b.AddNode()
			_ = b.AddEdge(nodes[r.Intn(len(nodes))], label(), n)
			nodes = append(nodes, n)
		case 2, 3:
			_ = b.AddEdge(nodes[r.Intn(len(nodes))], label(), nodes[r.Intn(len(nodes))])
		case 4, 5:
			if from, e, ok := edge(); ok {
				_ = b.DeleteEdge(from, e.Label, e.To)
			}
		case 6, 7:
			if from, e, ok := edge(); ok {
				_ = b.Relabel(from, e.Label, label())
			}
		case 8:
			_ = b.SetRoot(nodes[r.Intn(len(nodes))])
		}
	}
	return b
}

// replicate ships b to follower the way a replication stream does: the
// batch codec inside the WAL frame encoding, read back by ReadFrameFrom.
func replicate(follower *Database, b *mutate.Batch) error {
	var stream bytes.Buffer
	if err := mutate.WriteFrameTo(&stream, mutate.EncodeBatch(b)); err != nil {
		return err
	}
	frame, err := mutate.ReadFrameFrom(bufio.NewReader(&stream))
	if err != nil {
		return err
	}
	_, err = follower.ApplyReplicated(frame)
	return err
}

type plannerInput struct {
	name string
	po   query.PlanOptions
}

// plannerInputs are TestEngineGolden's five planner inputs over g, the
// guide ones only when g's DataGuide stays small; the last is
// index+statistics.
func plannerInputs(g *ssd.Graph) []plannerInput {
	ix := index.BuildLabelIndex(g)
	ins := []plannerInput{{"bare", query.PlanOptions{}}, {"index", query.PlanOptions{Label: ix}}}
	if guide, ok := dataguide.Build(g, 4096); ok {
		ins = append(ins, plannerInput{"guide", query.PlanOptions{Guide: guide}},
			plannerInput{"index+guide", query.PlanOptions{Label: ix, Guide: guide}})
	}
	return append(ins, plannerInput{"stats", query.PlanOptions{Label: ix, Stats: stats.Build(g)}})
}

func evalPlan(q *query.Query, st ssd.GraphStore, po query.PlanOptions, vals map[string]ssd.Label) (*ssd.Graph, error) {
	p, err := query.NewPlan(q, st, po)
	if err != nil {
		return nil, err
	}
	return p.EvalGraphCtx(nil, vals)
}

// openPaged lays g out at path in 128-byte pages and opens it behind a
// two-page buffer pool.
func openPaged(t *testing.T, path string, g *ssd.Graph) *storage.PageStore {
	if err := storage.WritePageFile(path, g, storage.ClusterDFS, 128); err != nil {
		t.Fatal(err)
	}
	ps, err := storage.OpenPageFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// drainStmt runs a prepared statement on its database's current snapshot
// and builds the answer from its rows.
func drainStmt(q *query.Query, s *Stmt, args []Param) (*ssd.Graph, error) {
	rows, err := s.Query(context.Background(), args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := query.NewResult(q, rows.Graph())
	for rows.Next() {
		if err := res.Add(rows.Env()); err != nil {
			return nil, err
		}
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res.Graph(), nil
}
