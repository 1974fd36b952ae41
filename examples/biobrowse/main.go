// Biobrowse: the ACeDB scenario of §1.1 — a biological database whose
// schema "imposes only loose constraints" and whose trees have arbitrary
// depth. The example browses it without knowing its structure, finds
// values at unknown depths, extracts a schema after the fact, and checks
// that the loose schema really is loose.
//
//	go run ./examples/biobrowse
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func main() {
	g := workload.ACeDB(workload.BioConfig{Objects: 300, MaxDepth: 14, Fanout: 3, Seed: 11})
	db := core.FromGraph(g)
	fmt.Println("ACeDB-style database:", db.Describe())

	// --- Browsing: what does this thing even look like? (§1.3)
	fmt.Println("\ntop label paths (DataGuide):")
	for _, a := range db.DataGuide().Summary(2, 12) {
		parts := make([]string, len(a.Path))
		for i, l := range a.Path {
			parts[i] = l.String()
		}
		fmt.Printf("  %-25s extent %d\n", strings.Join(parts, "."), a.ExtentLen)
	}

	// --- Values at arbitrary depth: conventional techniques cannot query
	// trees of unknown depth; a regular path expression can.
	fmt.Printf("\nint values > 90000 at any depth: %d\n", countPath(db, "Object._*.(> 90000)"))

	// How deep do Gene chains nest?
	for depth := 1; ; depth++ {
		if countPath(db, "Object."+strings.Repeat("_.", depth-1)+"Gene") == 0 {
			fmt.Printf("deepest Gene edge: depth %d\n", depth-1)
			break
		}
	}

	// --- Structure discovery (§5): extract a schema, then demonstrate the
	// ACeDB property — data with *missing* fields still conforms (loose),
	// data with *wrong types* does not.
	s := schema.Infer(g)
	nodes, edges := s.Size()
	fmt.Printf("\ninferred schema: %d nodes, %d edges\n", nodes, edges)
	fmt.Println("data conforms to inferred schema:", s.Conforms(g))

	partial := ssd.MustParse(`{Object: {Name: "obj-x"}}`)
	fmt.Println("object with fields missing conforms:", s.Conforms(partial))

	wrong := ssd.MustParse(`{Object: {Name: 42}}`)
	fmt.Println("object with wrongly-typed Name conforms:", s.Conforms(wrong))
}

// countPath runs a path statement and returns how many nodes it matches.
func countPath(db *core.Database, src string) int {
	s, err := db.Prepare("path: " + src)
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
