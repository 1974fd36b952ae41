package main

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ssd"
)

// traffic is what the clients send.
type traffic int

const (
	trafficRead  traffic = iota // 70 % sel / 20 % path / 10 % wide on /query
	trafficWrite                // 70 % ins / 20 % rel / 10 % del on /mutate
	trafficRyw                  // ins, then the tokened read of its title
)

// workloadDef is one workload: data size, serving tier, traffic. Why each
// exists is in BENCHMARK.json and bench/README.md.
type workloadDef struct {
	entries   int
	topo      topology
	traffic   traffic
	traceReqs int // operations in the traced run's fixed prefix
}

var workloads = map[string]workloadDef{
	"read_mem":       {entries: 20000, traffic: trafficRead, traceReqs: 400},
	"read_paged":     {entries: 20000, traffic: trafficRead, traceReqs: 100, topo: topology{poolBytes: 1 << 20}},
	"write_durable":  {entries: 20000, traffic: trafficWrite, traceReqs: 100, topo: topology{checkpoint: 5 * time.Second}},
	"replicated_ryw": {entries: 5000, traffic: trafficRyw, traceReqs: 200, topo: topology{followers: 2}},
}

func workloadNames() []string { return slices.Sorted(maps.Keys(workloads)) }

// numClients is the closed loop's width: one caller per core of the box the
// bounds were calibrated on, each on its own connection.
const numClients = 2

// Stream lengths per client. Reads replay theirs when it runs out; a write
// stream must outlast the run (each title and each deleted entry is used
// once) and is capped by the entries the client owns.
const (
	readStreamLen  = 2000
	writeStreamLen = 6000
)

// clientRNG seeds one client's stream from the run's seed and its index.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(client)))
}

// streams builds every client's request sequence from the seed.
func streams(def workloadDef, g *ssd.Graph, seed int64) ([][]*request, *readCatalog, error) {
	out := make([][]*request, numClients)
	switch def.traffic {
	case trafficRead:
		cat, err := newReadCatalog(core.FromGraph(g), rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, nil, err
		}
		for c := range out {
			out[c] = cat.stream(clientRNG(seed, c), readStreamLen)
		}
		return out, cat, nil
	case trafficWrite:
		base := baseEntries(g)
		n := min(writeStreamLen, len(base)/numClients*2)
		for c := range out {
			s, err := writeStream(clientRNG(seed, c), c, numClients, n, base)
			if err != nil {
				return nil, nil, err
			}
			out[c] = s
		}
	case trafficRyw:
		for c := range out {
			out[c] = rywStream(clientRNG(seed, c), c, writeStreamLen)
		}
	}
	return out, nil, nil
}

// firstTouch sends the fixed requests that end set-up: one of each read
// class, or one commit (and its read-back). Whatever the system builds
// lazily on first use — indexes restored or rebuilt, plans, the replication
// stream — is built here, inside setup_s, and not in the measured window.
func firstTouch(c *cluster, def workloadDef, cat *readCatalog, rep int) error {
	cl := newClient(-1, c.frontURL, nil, false)
	defer cl.close()
	rng := rand.New(rand.NewSource(int64(rep)))
	var reqs []*request
	switch def.traffic {
	case trafficRead:
		reqs = []*request{cat.sel[0], cat.path, cat.wide[0]}
	case trafficWrite:
		reqs = []*request{insRequest(clsIns, fmt.Sprintf("bench touch-%d", rep), rng)}
	case trafficRyw:
		reqs = rywStream(rng, -1-rep, 1)
	}
	for _, r := range reqs {
		if _, err := cl.do(r); err != nil {
			return fmt.Errorf("first touch: %w", err)
		}
	}
	c.noteAcks(cl)
	return nil
}

// setUp brings the workload's serving tier up cfg.setups times, timing each
// from the seeded directory's creation to the end of firstTouch, and keeps
// the last one. Earlier ones are torn down completely, off the clock.
func setUp(cfg config, def workloadDef, g *ssd.Graph, cat *readCatalog, dir string) (*cluster, []float64, error) {
	var times []float64
	for rep := 0; ; rep++ {
		root := filepath.Join(dir, fmt.Sprintf("setup%d", rep))
		start := time.Now()
		c, err := startCluster(root, g, def.topo)
		if err != nil {
			return nil, nil, err
		}
		if err := firstTouch(c, def, cat, rep); err != nil {
			c.stop()
			return nil, nil, err
		}
		times = append(times, seconds(time.Since(start)))
		if rep == cfg.setups-1 {
			return c, times, nil
		}
		c.stop()
		if err := os.RemoveAll(root); err != nil {
			return nil, nil, err
		}
	}
}

// run executes one workload in dir and returns its result object.
func run(cfg config, dir string) (*result, error) {
	def := workloads[cfg.workload]
	if cfg.entries > 0 {
		def.entries = cfg.entries
	}
	if cfg.traceReqs > 0 {
		def.traceReqs = cfg.traceReqs
	}
	g := dataset(def.entries, cfg.seed)
	if cfg.trace {
		return runTraced(cfg, def, g, dir)
	}
	return runEndToEnd(cfg, def, g, dir)
}

func runEndToEnd(cfg config, def workloadDef, g *ssd.Graph, dir string) (*result, error) {
	reqs, cat, err := streams(def, g, cfg.seed)
	if err != nil {
		return nil, err
	}
	c, setupTimes, err := setUp(cfg, def, g, cat, dir)
	if err != nil {
		return nil, err
	}
	defer c.stop()

	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(i, c.frontURL, reqs[i], def.traffic == trafficRead)
		defer clients[i].close()
	}
	for _, cl := range clients {
		cl.samples = make([]sample, 0, 1<<14) // no growth inside the window
	}
	// Collect what set-up left behind before the warm-up, not after it: a
	// forced collection right before the window shrinks the heap, and the
	// first seconds of the window would pay for growing it back.
	runtime.GC()
	if _, err := drive(clients, cfg.warmup, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	before := readUsage()
	elapsed, err := drive(clients, cfg.window, true)
	if err != nil {
		return nil, err
	}
	after := readUsage()
	if err := c.settle(); err != nil { // a follower mid-apply holds two snapshots live
		return nil, err
	}
	heap := liveHeapMB()

	res := &result{Metrics: map[string]metric{}}
	var all []sample
	for _, cl := range clients {
		res.Attempted += cl.attempted
		res.Failed += cl.failed
		all = append(all, cl.samples...)
		c.noteAcks(cl)
		if cl.firstErr != nil {
			fmt.Fprintf(os.Stderr, "ssdload: client %d: first failure: %v\n", cl.id, cl.firstErr)
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no operation succeeded in the window")
	}

	recovery, err := recoveryStep(cfg, def, c)
	if err != nil {
		return nil, err
	}

	ops := float64(len(all))
	lat := latencies(all, func(s sample) float64 { return s.ms })
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", median(setupTimes), "s")
	put("ops_per_s", ops/seconds(elapsed), "1/s")
	put("p95_ms", quantile(lat, 0.95), "ms")
	put("recovery_s", recovery, "s")
	put("cpu_ms_per_op", ms(after.cpu-before.cpu)/ops, "ms")
	put("alloc_kb_per_op", float64(after.alloc-before.alloc)/1024/ops, "KiB")
	put("live_heap_mb", heap, "MiB")
	res.Correct = res.Failed == 0

	fmt.Printf("%s: seed %d, %d entries, %d clients, window %.2fs, set-ups %.3v s\n",
		cfg.workload, cfg.seed, def.entries, numClients, seconds(elapsed), setupTimes)
	fmt.Printf("p95_ms over %d samples; p50 of the mix %.3f ms (not a bounded metric: see bench/README.md)\n", len(lat), quantile(lat, 0.50))
	printClasses(all)
	return res, nil
}

// latencies extracts one latency per sample, sorted.
func latencies(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	sort.Float64s(out)
	return out
}

// printClasses breaks the window down by request class — informational: the
// end-to-end percentiles are over the whole mix.
func printClasses(all []sample) {
	for cls := class(0); cls < numClasses; cls++ {
		var of []sample
		for _, s := range all {
			if s.class == cls {
				of = append(of, s)
			}
		}
		if len(of) == 0 {
			continue
		}
		lat := latencies(of, func(s sample) float64 { return s.ms })
		fmt.Printf("  %-5s n=%-6d p50 %.3f ms  p95 %.3f ms", classNames[cls], len(of), quantile(lat, 0.5), quantile(lat, 0.95))
		if cls == clsRyw {
			w := latencies(of, func(s sample) float64 { return s.writeMS })
			r := latencies(of, func(s sample) float64 { return s.readMS })
			fmt.Printf("  (write p50 %.3f ms, tokened read p50 %.3f ms)", quantile(w, 0.5), quantile(r, 0.5))
		}
		fmt.Println()
	}
}

// recoveryStep is the fixed work after the window: stop serving, checkpoint,
// commit exactly cfg.tail more inserts, close the handle with no final
// checkpoint, then time core.OpenPathOptions on the directory. The reopen is
// checked: the log tail replayed in full, the commit position the last
// acknowledged one, every acknowledged marker title in the graph. This is a
// logical check on files closed in an orderly way, not a power-loss test.
// One reopen is enough: repeats within a run agree to about 2 %, far inside
// what the box varies by from run to run.
func recoveryStep(cfg config, def workloadDef, c *cluster) (float64, error) {
	c.stopServing()
	db := c.leader.db
	if _, err := db.Checkpoint(); err != nil {
		return 0, fmt.Errorf("recovery: checkpoint: %w", err)
	}
	for _, r := range tailStream(rand.New(rand.NewSource(cfg.seed)), cfg.tail) {
		seq, err := db.MutateScriptSeq(string(r.body))
		if err != nil {
			return 0, fmt.Errorf("recovery: tail commit: %w", err)
		}
		c.acked, c.lastSeq = append(c.acked, r.title), seq
	}
	c.stop()

	start := time.Now()
	re, err := core.OpenPathOptions(c.dir, core.Options{PoolBytes: def.topo.poolBytes})
	if err != nil {
		return 0, fmt.Errorf("recovery: reopen: %w", err)
	}
	took := seconds(time.Since(start))
	defer re.CloseWAL()
	return took, checkRecovered(re, cfg.tail, c.lastSeq, c.acked)
}

func checkRecovered(db *core.Database, tail int, lastSeq uint64, acked []string) error {
	if got := db.LastRecovery().Replayed; got != tail {
		return fmt.Errorf("recovery: replayed %d batches, want %d", got, tail)
	}
	if got := db.CommitSeq(); got != lastSeq {
		return fmt.Errorf("recovery: commit position %d, last acknowledged %d", got, lastSeq)
	}
	titles := map[string]bool{}
	for _, e := range baseEntries(db.Graph()) {
		titles[e.title] = true
	}
	for _, t := range acked {
		if !titles[t] {
			return fmt.Errorf("recovery: acknowledged commit %q is missing after reopen", t)
		}
	}
	return nil
}
