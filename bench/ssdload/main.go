// Command ssdload is the repository's benchmark: one process per workload
// run, everything in-process. It generates the dataset from -seed, seeds a
// durable directory, wires core.OpenPathOptions → server.New(...).Handler()
// → net/http on 127.0.0.1:0 the way cmd/ssdserve does with its flag defaults
// (plus followers and a server.Router for the replicated topology), drives
// it over loopback HTTP in a closed loop with two clients, verifies every
// response, and prints every metric by name with its unit. The last line of
// standard output is the result object BENCHMARK.json's contract asks for.
//
//	ssdload -workload read_mem -seed 1 -seconds 14 -trace 0   # end-to-end metrics
//	ssdload -workload read_mem -seed 1 -seconds 14 -trace 1   # per-layer metrics + span file
//	ssdload -workload read_mem -repeat 5                      # calibration table
//
// See bench/README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value; the JSON shape is the contract's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's shape. The flags set only what the benchmark contract
// passes; the sizes are fixed per workload (workloads.go) and shrunk only by
// the smoke test.
type config struct {
	workload string
	seed     int64
	window   time.Duration // measured window
	warmup   time.Duration // same stream, not measured
	trace    bool
	dirRoot  string // run directories are created (and removed) under it
	spans    string // traced run: span file

	entries   int // dataset size; 0 = the workload's documented size
	setups    int // set-up repetitions; setup_s is their median
	tail      int // commits applied after the last checkpoint, replayed on reopen
	traceReqs int // traced run: requests in the fixed prefix; 0 = the workload's
}

func defaultConfig() config {
	return config{
		seed:   1,
		window: 14 * time.Second,
		warmup: 2 * time.Second,
		setups: 3,
		tail:   64,
	}
}

func main() {
	cfg := defaultConfig()
	seconds := flag.Int("seconds", int(cfg.window/time.Second), "measured window in seconds (same on both sides of any comparison)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run: per-layer metrics and a span file")
	repeat := flag.Int("repeat", 0, "calibration: run N times on seeds seed..seed+N-1 and print min/median/max/relative IQR per metric")
	deadline := flag.Duration("deadline", 150*time.Second, "hard watchdog per run: exit non-zero when a run takes longer")
	flag.StringVar(&cfg.workload, "workload", "", "one of "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seeds the dataset and the request streams")
	flag.StringVar(&cfg.dirRoot, "dir", "", "parent of the run's data directory (default: the system temp dir)")
	flag.StringVar(&cfg.spans, "spans", "", "traced run: span file (default <dir>/ssdload-spans-<workload>.json)")
	flag.Parse()
	if _, ok := workloads[cfg.workload]; !ok || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ssdload: -workload must be one of %v\n", workloadNames())
		os.Exit(2)
	}
	cfg.window = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1
	if cfg.dirRoot == "" {
		cfg.dirRoot = os.TempDir()
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(cfg.dirRoot, "ssdload-spans-"+cfg.workload+".json")
	}

	if *repeat > 0 {
		os.Exit(calibrate(cfg, *repeat, *deadline))
	}
	res, err := runGuarded(cfg, *deadline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssdload: %v\n", err)
		os.Exit(1)
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssdload: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runGuarded runs one workload under the watchdog. Everything the run
// starts lives in this process, so exiting is enough to leave no listener or
// goroutine behind; the watchdog also removes the run's data directory.
func runGuarded(cfg config, deadline time.Duration) (*result, error) {
	dir, err := os.MkdirTemp(cfg.dirRoot, "ssdload-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "ssdload: watchdog: %s still running after %s\n", cfg.workload, deadline)
		os.RemoveAll(dir)
		os.Exit(3)
	})
	defer watchdog.Stop()
	// A run that is told to stop (or whose reader went away) still removes
	// its data directory.
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer func() { signal.Stop(sig); close(done) }()
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "ssdload: %v\n", s)
			os.RemoveAll(dir)
			os.Exit(4)
		case <-done:
		}
	}()
	return run(cfg, dir)
}

// printMetrics lists every metric by name with its unit, sorted.
func printMetrics(res *result) {
	for _, n := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[n]
		fmt.Printf("%-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// calibrate is -repeat: the same workload n times on consecutive seeds, in
// this one process, then min / median / max and the relative interquartile
// range of every metric — the spread the bounds in BENCHMARK.json are set
// against.
func calibrate(cfg config, n int, deadline time.Duration) int {
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		res, err := runGuarded(c, deadline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssdload: seed %d: %v\n", c.seed, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "ssdload: seed %d: %d of %d operations failed\n", c.seed, res.Failed, res.Attempted)
			return 1
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "ssdload: %s seed %d done\n", cfg.workload, c.seed)
	}
	fmt.Printf("%-40s %-8s %12s %12s %12s %8s\n", cfg.workload, "unit", "min", "median", "max", "relIQR")
	for _, name := range slices.Sorted(maps.Keys(values)) {
		v := values[name]
		sort.Float64s(v)
		med := quantile(v, 0.5)
		iqr := 0.0
		if med != 0 {
			iqr = (quantile(v, 0.75) - quantile(v, 0.25)) / med
		}
		fmt.Printf("%-40s %-8s %12.4f %12.4f %12.4f %7.1f%%\n", name, units[name], v[0], med, v[len(v)-1], 100*iqr)
	}
	return 0
}
