// Moviedb: the paper's Figure 1 worked end to end — the irregular cast
// representations, the guarded path query for "Allen", the References
// cycle, and the UnQL restructurings of §3 (fixing the Bacall label,
// collapsing Credit, deleting edges).
//
//	go run ./examples/moviedb
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/workload"
)

// exec prepares a select query or transform and runs it to its result
// database.
func exec(db *core.Database, src string) *core.Database {
	s, err := db.Prepare(src)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Exec(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// count prepares a statement and returns how many rows it streams.
func count(db *core.Database, src string) int {
	s, err := db.Prepare(src)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := s.Query(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	return n
}

func main() {
	// Figure 1 exactly as printed, including the misspelled "Bacal" edge.
	db := core.FromGraph(workload.Fig1(true))
	fmt.Println("Figure 1:", db.Describe())
	fmt.Println(db.Format())

	// --- §3: the motivating query. Was "Allen" in a movie? Constrain the
	// path so it cannot wander through References into another Movie.
	hits := count(db, `path: Entry.Movie.(!Movie)*."Allen"`)
	fmt.Printf("\n\"Allen\" below exactly one Movie edge: %d occurrences\n", hits)

	// The same question, SQL-style, with the answer tied to titles.
	res := exec(db, `
		select {Title: T}
		from DB.Entry.Movie M, M.Title T, M.(!Movie)* A
		where A = "Allen"`)
	fmt.Println("movies involving Allen:", res.Format())

	// --- The irregularity: one query over both cast representations.
	res = exec(db, `
		select {Actor: %N}
		from DB.Entry._.Cast.(isint|Credit.Actors|Special-Guests)? C,
		     C.%N L
		where isstring(%N)`)
	fmt.Println("all credited names:  ", res.Format())

	// --- Restructuring (§3). First, the paper's example: correct the
	// "egregious error in the Bacall edge label".
	fixed := exec(db, `relabel "Bacal" to "Bacall"`)
	fmt.Println("\nafter fixing Bacal → Bacall:")
	fmt.Println("  equal to corrected figure:", bisim.Equal(fixed.Graph(), workload.Fig1(false)))

	// Collapse the Credit indirection so both cast forms align one level.
	collapsed := exec(fixed, `collapse Credit`)
	actors := count(collapsed, "path: Entry.Movie.Cast.Actors._")
	fmt.Printf("  after collapsing Credit: Cast.Actors reaches %d name(s)\n", actors)

	// Delete the cross-entry links entirely.
	trimmed := exec(collapsed, `delete References`)
	refs := count(trimmed, "path: _*.References")
	fmt.Printf("  after deleting References: %d left\n", refs)

	// --- Scale it up: the same queries on a 20k-entry database.
	big := core.FromGraph(workload.Movies(workload.DefaultMovieConfig(20000)))
	fmt.Println("\nscaled database:", big.Describe())
	rows := count(big, `
		select T
		from DB.Entry.Movie M, M.Title T, M.Cast.(isint|Credit.Actors) A
		where A = "Bogart"`)
	fmt.Printf("movies crediting Bogart at 20k entries: %d\n", rows)

	guide := dataguide.MustBuild(big.Graph())
	fmt.Printf("dataguide: %d nodes summarize %d data nodes\n",
		guide.NumNodes(), big.Graph().NumNodes())
}
