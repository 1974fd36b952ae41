// Command ssdbench regenerates the experiment tables of EXPERIMENTS.md:
// one experiment per quantitative claim of the paper (see DESIGN.md §2).
//
// Usage:
//
//	ssdbench                  # run everything at default scale
//	ssdbench -exp e3,e4       # run selected experiments
//	ssdbench -scale 3         # multiply workload sizes
//	ssdbench -list            # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// experiment is one runnable experiment. Run prints a table to stdout.
type experiment struct {
	id    string
	title string
	run   func(scale int)
}

var experiments = []experiment{
	{"fig1", "Figure 1: the movie database and the paper's queries", runFig1},
	{"e2", "E2 (§1.3): browsing queries — scan vs value index", runE2Browsing},
	{"e3", "E3 (§3): regular path queries — traversal vs DataGuide index", runE3PathIndex},
	{"e4", "E4 (§3): graph datalog — naive vs semi-naive", runE4Datalog},
	{"e5", "E5 (§3): UnQL select on relational encodings ≡ relational algebra", runE5Equivalence},
	{"e6", "E6 (§3): restructuring — memoized GExt vs tree unfolding", runE6Restructure},
	{"e7", "E7 (§4): query decomposition across sites — serial vs parallel", runE7Decomposition},
	{"e8", "E8 (§5): schema-based query pruning", runE8SchemaPruning},
	{"e9", "E9 (§5): DataGuide construction — regular vs irregular data", runE9DataGuide},
	{"e10", "E10 (§4): page I/O — DFS clustering vs random placement", runE10Storage},
	{"e11", "E11 (§2): bisimulation — naive vs incremental refinement", runE11Bisim},
}

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment ids (or 'all')")
		scale   = flag.Int("scale", 1, "workload scale multiplier")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-5s %s\n", e.id, e.title)
		}
		return
	}
	want := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if !known(id) {
				fmt.Fprintf(os.Stderr, "ssdbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
		}
	}
	for _, e := range experiments {
		if *expFlag != "all" && !want[e.id] {
			continue
		}
		fmt.Printf("=== %s — %s\n", strings.ToUpper(e.id), e.title)
		e.run(*scale)
		fmt.Println()
	}
}

func known(id string) bool {
	for _, e := range experiments {
		if e.id == id {
			return true
		}
	}
	return false
}

// table is a tiny column-aligned printer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

func (t *table) print() {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, width[i])
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(t.header)
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", width[i])
	}
	line(rule)
	for _, r := range t.rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// sortedKeys returns map keys sorted, for deterministic output.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
