// Command benchgate compares two benchjson documents and fails when any
// gated benchmark regressed beyond a threshold. CI runs it with a baseline
// measured in the same job on the same machine (the base ref rebuilt and
// benchmarked alongside HEAD), so a performance regression on the gated
// suites fails the build instead of merely showing up in a report artifact.
// Cross-machine comparisons (e.g. against the baseline document committed
// in the repository) are only meaningful as a trend report: run those with
// -warn, which prints the same verdicts but always exits 0, because
// machine-to-machine variance routinely exceeds any useful threshold.
//
//	benchgate -baseline bench-base.json -current bench-current.json
//	benchgate -warn -baseline BENCH_pr6.json -current bench-current.json
//
// Gated benchmarks are selected by name prefix (-match, comma-separated).
// For every gated name present in both documents, the mean ns/op across its
// repeated -count entries is compared; a current mean above
// baseline*(1+threshold) is a regression. Names present on only one side are
// reported but never fail the gate — benchmarks are added and retired as the
// code evolves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// run mirrors benchjson's Run; decoded loosely so the two commands do not
// need a shared package.
type run struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

type report struct {
	Benchmarks []run `json:"benchmarks"`
}

func main() {
	baseline := flag.String("baseline", "", "baseline benchjson document (required)")
	current := flag.String("current", "", "current benchjson document (required)")
	match := flag.String("match", "BenchmarkPlannedVsNaive,BenchmarkInstrumentationOverhead,BenchmarkPagedVsInMemory,BenchmarkStatsMaintenance,BenchmarkCanonicalize,BenchmarkBisim",
		"comma-separated benchmark name prefixes to gate")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional ns/op regression")
	warn := flag.Bool("warn", false, "report regressions but exit 0 (for cross-machine baselines)")
	flag.Parse()
	if *baseline == "" || *current == "" {
		flag.Usage()
		os.Exit(2)
	}

	base, err := load(*baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*current)
	if err != nil {
		fatal(err)
	}
	prefixes := strings.Split(*match, ",")

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	var regressions []string
	gated := 0
	for _, name := range names {
		if !matches(name, prefixes) {
			continue
		}
		cm, ok := cur[name]
		if !ok {
			fmt.Printf("skip   %-60s not in current run\n", name)
			continue
		}
		gated++
		bm := base[name]
		ratio := cm / bm
		verdict := "ok"
		if ratio > 1+*threshold {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (%+.1f%%)", name, bm, cm, (ratio-1)*100))
		}
		fmt.Printf("%-6s %-60s %12.0f -> %12.0f ns/op (%+.1f%%)\n", verdict, name, bm, cm, (ratio-1)*100)
	}
	for name := range cur {
		if matches(name, prefixes) {
			if _, ok := base[name]; !ok {
				fmt.Printf("new    %-60s not in baseline\n", name)
			}
		}
	}
	if gated == 0 {
		fatal(fmt.Errorf("no gated benchmarks matched %q in the baseline", *match))
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchgate: %d benchmark(s) regressed more than %.0f%%:\n", len(regressions), *threshold*100)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		if *warn {
			fmt.Fprintln(os.Stderr, "benchgate: -warn set, not failing (cross-machine baseline)")
			os.Exit(0)
		}
		os.Exit(1)
	}
	fmt.Printf("\nbenchgate: %d gated benchmark(s) within %.0f%% of baseline\n", gated, *threshold*100)
}

// load reads a benchjson document and returns mean ns/op per benchmark name.
func load(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sum := map[string]float64{}
	n := map[string]int{}
	for _, r := range rep.Benchmarks {
		v, ok := r.Metrics["ns/op"]
		if !ok {
			continue
		}
		sum[r.Name] += v
		n[r.Name]++
	}
	means := make(map[string]float64, len(sum))
	for name, s := range sum {
		means[name] = s / float64(n[name])
	}
	if len(means) == 0 {
		return nil, fmt.Errorf("%s: no benchmark entries with ns/op", path)
	}
	return means, nil
}

func matches(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if p != "" && strings.HasPrefix(name, strings.TrimSpace(p)) {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
