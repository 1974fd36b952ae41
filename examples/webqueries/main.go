// Webqueries: treating the Web as a database (§1.1). A schema-less page
// graph is queried with recursive datalog (reachability, hub detection —
// the "graph datalog" of §3) and with a decomposed, parallel path query
// (§4), the way WebSQL-style systems [29] and Suciu's decomposition [35]
// would.
//
//	go run ./examples/webqueries
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/pathexpr"
	"repro/internal/workload"
)

func main() {
	g := workload.Web(workload.WebConfig{Pages: 2000, OutLinks: 4, Seed: 42})
	db := core.FromGraph(g)
	fmt.Println("web graph:", db.Describe())

	// --- Recursive reachability: what is transitively linked from the
	// root's first pages? Pure "graph datalog".
	rels := relationSizes(db, `
		page(P)  :- edge(root, 'Page', P).
		reach(P) :- page(P).
		reach(Q) :- reach(P), edge(P, 'link', Q).
		% pages that mention Casablanca in their title, reachable by links
		hit(P)   :- reach(P), edge(P, 'title', T), edge(T, S, _),
		            isstring(S), like(S, "%Casablanca%").`)
	fmt.Printf("pages: %d, link-reachable: %d, reachable mentioning Casablanca: %d\n",
		rels["page"], rels["reach"], rels["hit"])

	// --- Hubs: pages linked from at least two distinct reachable pages
	// (negation-free join).
	rels = relationSizes(db, `
		linked(P, Q) :- edge(P, 'link', Q).
		hub(Q) :- linked(P1, Q), linked(P2, Q), neq(P1, P2).`)
	fmt.Printf("hub pages (≥2 in-links): %d\n", rels["hub"])

	// --- Dead ends: reachable pages with no outgoing links (stratified
	// negation).
	rels = relationSizes(db, `
		page(P) :- edge(_, 'Page', P).
		haslink(P) :- page(P), edge(P, 'link', _).
		deadend(P) :- page(P), not haslink(P).`)
	fmt.Printf("dead-end pages: %d\n", rels["deadend"])

	// --- Distributed evaluation (§4): segment the web graph into "sites"
	// and run a path query in parallel.
	query := `Page.link.link.link.title._`
	au := pathexpr.MustCompile(query)
	centralized := au.Eval(g, g.Root())
	for _, sites := range []int{2, 4, 8} {
		p := decomp.PartitionBFS(g, sites)
		distributed := decomp.Eval(g, pathexpr.MustCompile(query), p, true)
		fmt.Printf("decomposed over %d sites (%d cross edges): %d hits (centralized: %d)\n",
			sites, p.CrossEdges(g), len(distributed), len(centralized))
	}
}

// relationSizes runs a datalog program as a prepared statement and counts
// the streamed tuples of each IDB relation.
func relationSizes(db *core.Database, prog string) map[string]int {
	s, err := db.Prepare("datalog: " + prog)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := s.Query(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	sizes := map[string]int{}
	var rel, tuple string
	for rows.Next() {
		if err := rows.Scan(&rel, &tuple); err != nil {
			log.Fatal(err)
		}
		sizes[rel]++
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	return sizes
}
