// Viewsite: the view-definition and exchange corner of the paper — §3's
// view language [4], §1.2's OEM exchange [33], and [18]'s idea of a web
// site as a set of materialized views over a database. Views are defined
// over the movie database, stacked on each other, materialized into a
// "site", and shipped out in the OEM wire format.
//
//	go run ./examples/viewsite
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/oem"
	"repro/internal/views"
	"repro/internal/workload"
)

func main() {
	base := workload.Movies(workload.DefaultMovieConfig(200))
	fmt.Println("base database:", core.FromGraph(base).Describe())

	reg := views.NewRegistry()
	must(reg.Define("movies", `
		select {m: M} from DB.base.Entry.Movie M`))
	must(reg.Define("bydirector", `
		select {%D: {Title: T}}
		from DB.movies.m M, M.Director.%D X, M.Title T`))
	must(reg.Define("titles", `
		select T from DB.movies.m.Title T`))

	// Materialize a single view.
	bd, err := reg.Materialize("bydirector", base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bydirector view: %d director groups\n", len(bd.Out(bd.Root())))

	// Materialize the whole "site" [18].
	site, err := reg.MaterializeAll(base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("site:", core.FromGraph(site).Describe())
	for _, name := range reg.Names() {
		src, _ := reg.Text(name)
		fmt.Printf("  view %-12s defined by: %.60s...\n", name, oneLine(src))
	}

	// Ship the site to another system in the OEM exchange format (§1.2).
	doc := oem.FromGraph(site)
	wire := doc.Format()
	fmt.Printf("\nOEM export: %d objects, %d bytes on the wire\n",
		len(doc.Objects), len(wire))

	// The receiving side re-imports and queries it.
	back, err := oem.Parse(wire)
	if err != nil {
		log.Fatal(err)
	}
	remote := core.FromGraph(oem.ToGraph(back))
	titles, err := remote.Prepare(`select T from DB.root.movies.m.Title T`)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := titles.Query(context.Background())
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
	fmt.Printf("titles visible on the receiving side: %d\n", n)
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
	return string(out)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
