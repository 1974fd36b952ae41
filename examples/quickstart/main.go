// Quickstart: build a small semistructured database from text, prepare a
// statement once, execute it with different parameters, stream the rows,
// look at the data without a schema (the leaf packages work on
// db.Graph()), and make the whole thing durable.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/pathexpr"
	"repro/internal/schema"
	"repro/internal/ssd"
)

func main() {
	// 1. Load data from the text syntax. No schema is declared anywhere —
	// note the heterogeneous record shapes.
	db, err := core.ParseText(`
	{person: {name: "Ada",  born: 1815, interest: "mathematics"},
	 person: {name: "Alan", born: 1912},
	 person: {name: "Grace", born: 1906, rank: "rear admiral",
	          interest: {primary: "compilers", also: "navy"}}}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("database:", db.Describe())

	// 2. Prepare once, execute many: the statement is parsed and planned a
	// single time; each execution binds the $cutoff parameter into a
	// reserved plan slot. The `interest` field is sometimes a string and
	// sometimes a record; `_*` reaches the strings wherever they are.
	stmt, err := db.Prepare(`
		select {Of: N, Likes: %V}
		from DB.person P, P.name N, P.born B, P.interest._* I, I.%V X
		where isstring(%V) and B < $cutoff`)
	if err != nil {
		log.Fatal(err)
	}
	for _, cutoff := range []int{1900, 2000} {
		res, err := stmt.Exec(context.Background(), core.P("cutoff", cutoff))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ninterests of people born before %d:\n  %s\n", cutoff, res.Format())
	}

	// 3. Stream binding rows instead of materializing a result tree: Rows
	// pulls tuples straight from the executor; the Env is reused per row.
	people, err := db.Prepare(`select N from DB.person P, P.name._ N`)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := people.Query(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npeople (streamed):")
	for rows.Next() {
		env := rows.Env() // valid until the next rows.Next()
		fmt.Println("  node", env.Trees["N"])
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	rows.Close()

	// 4. The same Prepare entry point speaks the other front-ends: path
	// expressions stream matching nodes...
	deep, err := db.Prepare(`path: person.interest._*.isdata`)
	if err != nil {
		log.Fatal(err)
	}
	prows, err := deep.Query(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for prows.Next() {
		n++
	}
	if err := prows.Err(); err != nil {
		log.Fatal(err)
	}
	prows.Close()
	fmt.Println("\nleaf values under interest:", n)

	// ...and UnQL transforms restructure.
	rename, err := db.Prepare(`unql: relabel interest to $to`)
	if err != nil {
		log.Fatal(err)
	}
	hobbies, err := rename.Exec(context.Background(), core.P("to", "hobby"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after relabel:", hobbies.Describe())

	// 5. The §1.3 browsing queries: ask the data what it looks like. The
	// value index is a library over the graph, built when a browser wants it.
	values := index.BuildValueIndex(db.Graph())
	fmt.Println("\nintegers > 1900 anywhere:", len(values.Compare(pathexpr.OpGT, ssd.Int(1900))), "hits")
	fmt.Println(`where is "compilers"?   `, values.Exact(ssd.Str("compilers")))

	fmt.Println("\nlabel paths from the root (DataGuide):")
	for _, a := range dataguide.MustBuild(db.Graph()).Summary(3, 15) {
		parts := make([]string, len(a.Path))
		for i, l := range a.Path {
			parts[i] = l.String()
		}
		fmt.Printf("  %-30s extent %d\n", strings.Join(parts, "."), a.ExtentLen)
	}

	// 6. Infer a schema after the fact (§5) and check conformance.
	s := schema.Infer(db.Graph())
	fmt.Println("\ninferred schema:", s)
	fmt.Println("data conforms:", s.Conforms(db.Graph()))

	// 7. Make it durable: export as a directory of checkpointed snapshots
	// plus a WAL, reopen it, commit through the log, and checkpoint so the
	// next open replays nothing. (`ssdq save`/`ssdq open` and
	// `ssdserve -data` wrap exactly these calls.)
	dir, err := os.MkdirTemp("", "quickstart-db")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := db.SavePath(dir); err != nil {
		log.Fatal(err)
	}
	durable, err := core.OpenPath(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer durable.CloseWAL()
	if _, err := durable.MutateScriptSeq(`addnode; addedge 0 person $0; addnode; addedge $0 name $1`); err != nil {
		log.Fatal(err)
	}
	info, err := durable.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndurable: %s — checkpointed generation %d (%d batches folded)\n",
		durable.Describe(), info.Seq, info.Truncated)
}
