// Integration: the Tsimmis/OEM data-exchange scenario of §1.2 — "an
// extremely flexible format for data exchange between disparate databases".
// A relational source and a semistructured source are imported into the
// common graph model, merged, queried together, and the relational part is
// exported back out.
//
//	go run ./examples/integration
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func main() {
	// Source A: a relational database (tables with a fixed schema).
	rdb := workload.Relational(200, 12, 9)
	relDB := core.FromGraph(relstore.EncodeRelational(rdb))
	fmt.Println("relational source as a graph:", relDB.Describe())

	// Source B: semistructured movie entries (Figure 1 style, no schema).
	ssDB := core.FromGraph(workload.Movies(workload.DefaultMovieConfig(300)))
	fmt.Println("semistructured source:       ", ssDB.Describe())

	// Merge both under one root — the OEM "substrate in which almost any
	// other data structure may be represented".
	merged := ssd.New()
	merged.AddEdge(merged.Root(), ssd.Sym("warehouse"),
		merged.Graft(relDB.Graph(), relDB.Graph().Root()))
	merged.AddEdge(merged.Root(), ssd.Sym("web"),
		merged.Graft(ssDB.Graph(), ssDB.Graph().Root()))
	db := core.FromGraph(merged)
	fmt.Println("merged:                      ", db.Describe())

	// One query spanning both sources: directors known to the relational
	// warehouse who also directed something in the web data.
	join, err := db.Prepare(`
		select D
		from DB.warehouse.directors.tuple T, T.director D,
		     DB.web.Entry.Movie M, M.Director W
		where D = W`)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := join.Query(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	rows.Close()
	fmt.Printf("cross-source director joins: %d binding tuples\n", n)

	// Everything survives a round trip through the wire format.
	tmp := "/tmp/integration.ssdg"
	if err := db.Save(tmp); err != nil {
		log.Fatal(err)
	}
	back, err := core.Open(tmp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("binary round trip preserves value:", bisim.Equal(db.Graph(), back.Graph()))

	// The structured part can go back to tables; the semistructured part
	// cannot — the §5 boundary.
	split, err := back.Prepare(`select {movies: M, directors: D} from DB.warehouse.movies M, DB.warehouse.directors D`)
	if err != nil {
		log.Fatal(err)
	}
	warehouse, err := split.Exec(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	tables, err := relstore.DecodeRelational(warehouse.Graph())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-exported tables: movies=%d rows, directors=%d rows\n",
		tables["movies"].Len(), tables["directors"].Len())

	if _, err := relstore.DecodeRelational(back.Graph()); err != nil {
		fmt.Println("whole merged graph does not export (expected):", err)
	}
}
