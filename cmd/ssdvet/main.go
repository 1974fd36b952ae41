// Command ssdvet machine-checks the engine's concurrency and resource
// invariants: the writer-lock protocol around the WAL, atomic-only access to
// snapshot-published fields, cursor Close/Err discipline, page-accessor
// Release pairing, and cancellation polling in pull loops.
//
// Usage:
//
//	go run ./cmd/ssdvet ./...
//	go run ./cmd/ssdvet -only lockcheck,closecheck ./internal/core
//
// The checks are driven by //ssd: annotations in doc comments (see
// internal/analysis for the grammar and ARCHITECTURE.md for the invariant
// catalogue). Exit status is 1 when any diagnostic is reported, 2 on load
// failure — the same contract as go vet, so it slots into CI as-is.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ssdvet [-only names] [-list] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers, err := analysis.Suite(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdvet:", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdvet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdvet:", err)
		os.Exit(2)
	}

	idx := analysis.BuildIndex(pkgs)
	findings := analysis.RunAnalyzers(pkgs, idx, analyzers)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ssdvet: %d invariant violation(s)\n", len(findings))
		os.Exit(1)
	}
}
