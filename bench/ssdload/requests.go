package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// class is a request class; bench/README.md says what each one costs and why
// it is in a mix.
type class int

const (
	clsSel class = iota
	clsPath
	clsWide
	clsIns
	clsRel
	clsDel
	clsRyw // an ins and the tokened read of its title, through the router
	numClasses
)

var classNames = [numClasses]string{"sel", "path", "wide", "ins", "rel", "del", "ryw"}

const (
	selQuery  = `select {T: T} from DB.Entry.TV-Show S, S.Title T, S.Episode E where E > $lo`
	pathQuery = `path: Entry.Movie.References.Movie.Director._`
	wideQuery = `select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who`
	rywQuery  = `select {T: T} from DB._*.Title T where T = $t`

	selLoMin, selLoMax = 1_950_000, 1_995_000
	selParams          = 64 // distinct $lo values a stream draws from
)

// surnames are the generator's cast names — the values $who draws from.
var surnames = []string{"Bogart", "Bacall", "Allen", "Bergman", "Lorre", "Keaton", "Curtiz", "Kelly", "Welles", "Davis"}

// request is one pre-rendered operation.
type request struct {
	class class
	query string       // reads: statement text
	param []core.Param // reads: its parameters, for the oracle and the layer replays
	body  []byte       // the POST body: /query JSON, or a /mutate script
	want  int          // reads: rows the response must carry
	read  *request     // clsRyw: the read that must see this insert
	title string       // clsIns, clsRyw: the marker title the commit adds
}

func queryBody(query string, params map[string]any) []byte {
	b, err := json.Marshal(map[string]any{"query": query, "params": params})
	if err != nil {
		panic(err) // strings and ints only
	}
	return b
}

// strParam renders a string the way /query wants a string label: the ssdq
// literal syntax, quotes included.
func strParam(s string) string { return `"` + s + `"` }

// readCatalog is the distinct read requests of one dataset with their
// expected row counts, computed by draining a cursor on oracle — a separate
// in-memory handle over the same generated graph, never the served one.
type readCatalog struct {
	sel  []*request
	path *request
	wide []*request
}

func newReadCatalog(oracle *core.Database, rng *rand.Rand) (*readCatalog, error) {
	cat := &readCatalog{}
	step := (selLoMax - selLoMin) / selParams
	for i := 0; i < selParams; i++ {
		lo := selLoMin + i*step + rng.Intn(step)
		cat.sel = append(cat.sel, &request{
			class: clsSel, query: selQuery, param: []core.Param{core.P("lo", lo)},
			body: queryBody(selQuery, map[string]any{"lo": lo}),
		})
	}
	cat.path = &request{class: clsPath, query: pathQuery, body: queryBody(pathQuery, nil)}
	for _, who := range surnames {
		cat.wide = append(cat.wide, &request{
			class: clsWide, query: wideQuery, param: []core.Param{core.P("who", who)},
			body: queryBody(wideQuery, map[string]any{"who": strParam(who)}),
		})
	}
	for _, r := range cat.all() {
		n, err := expectRows(oracle, r)
		if err != nil {
			return nil, err
		}
		r.want = n
	}
	return cat, nil
}

func (cat *readCatalog) all() []*request {
	out := append([]*request{cat.path}, cat.sel...)
	return append(out, cat.wide...)
}

// expectRows drains r's statement directly on db and counts the rows.
func expectRows(db *core.Database, r *request) (int, error) {
	stmt, err := db.Prepare(r.query)
	if err != nil {
		return 0, err
	}
	rows, err := stmt.Query(context.Background(), r.param...)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	return n, rows.Err()
}

// The mixes are exact per block of ten, in seeded order, so the shares do
// not drift with the seed or with how far a run gets: a sampled mix would
// move ops_per_s by a few percent on the share of the slow class alone.
var (
	readBlock  = []class{clsSel, clsSel, clsSel, clsSel, clsSel, clsSel, clsSel, clsPath, clsPath, clsWide}
	writeBlock = []class{clsIns, clsIns, clsIns, clsIns, clsIns, clsIns, clsIns, clsRel, clsRel, clsDel}
)

// readStream is n requests in blocks of readBlock; parameters cycle through
// seeded permutations, so every value is used equally often.
func (cat *readCatalog) stream(rng *rand.Rand, n int) []*request {
	selOrder, wideOrder := rng.Perm(len(cat.sel)), rng.Perm(len(cat.wide))
	var out []*request
	nSel, nWide := 0, 0
	for len(out) < n {
		for _, i := range rng.Perm(len(readBlock)) {
			switch readBlock[i] {
			case clsSel:
				out = append(out, cat.sel[selOrder[nSel%len(selOrder)]])
				nSel++
			case clsPath:
				out = append(out, cat.path)
			case clsWide:
				out = append(out, cat.wide[wideOrder[nWide%len(wideOrder)]])
				nWide++
			}
		}
	}
	return out[:n]
}

// baseEntry is one generated Entry: what rel and del need to address it.
type baseEntry struct {
	node      ssd.NodeID // the Entry edge's target
	titleNode ssd.NodeID // …Title's target; its one out-edge carries the title
	title     string
}

func baseEntries(g *ssd.Graph) []baseEntry {
	var out []baseEntry
	for _, e := range g.Out(g.Root()) {
		prod := g.Out(e.To)[0].To // Movie or TV-Show
		t := g.LookupFirst(prod, ssd.Sym("Title"))
		title, _ := g.Out(t)[0].Label.Text()
		out = append(out, baseEntry{node: e.To, titleNode: t, title: title})
	}
	return out
}

// insScript adds one Entry.Movie{Title, Cast.1, Director} under the root:
// 9 addnode + 9 addedge, with title as the marker a later read looks for.
func insScript(title, who string) []byte {
	return []byte(fmt.Sprintf(`addnode; addnode; addnode; addnode; addnode; addnode; addnode; addnode; addnode
addedge 0 Entry $0
addedge $0 Movie $1
addedge $1 Title $2
addedge $2 %q $3
addedge $1 Cast $4
addedge $4 1 $5
addedge $5 %q $6
addedge $1 Director $7
addedge $7 %q $8
`, title, who, who))
}

func insRequest(cls class, title string, rng *rand.Rand) *request {
	return &request{class: cls, title: title, body: insScript(title, surnames[rng.Intn(len(surnames))])}
}

// writeStream is client's n commits in blocks of writeBlock. The client owns
// the base entries at its own parity: del takes them from the front, rel
// from the back, each entry at most once, so no script can name a node
// another script removed or a label another script changed.
func writeStream(rng *rand.Rand, client, clients, n int, base []baseEntry) ([]*request, error) {
	var owned []baseEntry
	for i := client; i < len(base); i += clients {
		owned = append(owned, base[i])
	}
	var out []*request
	nIns, front, back := 0, 0, len(owned)-1
	for len(out) < n {
		for _, i := range rng.Perm(len(writeBlock)) {
			if front >= back {
				return nil, fmt.Errorf("write stream of %d needs more than %d owned entries", n, len(owned))
			}
			switch writeBlock[i] {
			case clsIns:
				out = append(out, insRequest(clsIns, fmt.Sprintf("bench %d-%d", client, nIns), rng))
				nIns++
			case clsRel:
				e := owned[back]
				back--
				out = append(out, &request{class: clsRel,
					body: []byte(fmt.Sprintf("relabel %d %q %q\n", e.titleNode, e.title, e.title+" r"))})
			case clsDel:
				e := owned[front]
				front++
				out = append(out, &request{class: clsDel,
					body: []byte(fmt.Sprintf("deledge 0 Entry %d\n", e.node))})
			}
		}
	}
	return out[:n], nil
}

// rywStream is client's n insert-then-read-it-back pairs.
func rywStream(rng *rand.Rand, client, n int) []*request {
	out := make([]*request, n)
	for i := range out {
		r := insRequest(clsRyw, fmt.Sprintf("bench %d-%d", client, i), rng)
		r.read = &request{class: clsRyw, query: rywQuery, want: 1,
			param: []core.Param{core.P("t", r.title)},
			body:  queryBody(rywQuery, map[string]any{"t": strParam(r.title)})}
		out[i] = r
	}
	return out
}

// tailStream is the fixed work of the recovery step: n inserts committed
// after the last checkpoint, so a reopen replays exactly n batches.
func tailStream(rng *rand.Rand, n int) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = insRequest(clsIns, fmt.Sprintf("bench tail-%d", i), rng)
	}
	return out
}

// dataset generates the workload's graph from the seed.
func dataset(entries int, seed int64) *ssd.Graph {
	cfg := workload.DefaultMovieConfig(entries)
	cfg.Seed = seed
	return workload.Movies(cfg)
}
