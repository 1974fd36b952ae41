package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchMetric           `json:"end_to_end"`
	PerLayer  []benchMetric           `json:"per_layer"`
}

type benchMetric struct{ Name, Unit string }

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// smokeConfig shrinks a run to Movies(200) and a 300 ms window.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.trace = workload, trace
	cfg.entries, cfg.traceReqs = 200, 10
	cfg.window, cfg.warmup = 300*time.Millisecond, 50*time.Millisecond
	cfg.setups, cfg.tail = 1, 4
	cfg.spans = filepath.Join(t.TempDir(), "spans.json")
	return cfg
}

func checkMetrics(t *testing.T, res *result, want []benchMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s of BENCHMARK.json not emitted", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestWorkloadNamesMatchBenchmarkFile(t *testing.T) {
	var listed []string
	for _, w := range readBenchmarkFile(t).Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if got := workloadNames(); !slices.Equal(got, listed) {
		t.Errorf("program has workloads %v, BENCHMARK.json lists %v", got, listed)
	}
}

func TestEndToEndSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := run(smokeConfig(t, name, false), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, bf.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(t, name, true)
			res, err := run(cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, bf.PerLayer)
			paged := workloads[name].topo.poolBytes > 0
			if hit := res.Metrics["storage.pagepool.hit_ratio"].Value; (hit > 0) != paged {
				t.Errorf("storage.pagepool.hit_ratio = %v with paged = %v", hit, paged)
			}

			data, err := os.ReadFile(cfg.spans)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("span file does not parse: %v", err)
			}
			if len(spans) == 0 {
				t.Fatal("span file is empty")
			}
			ids := map[int]bool{}
			for _, s := range spans {
				ids[s.ID] = true
			}
			for _, s := range spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Errorf("span %d (%s): parent %d is not in the file", s.ID, s.Name, s.Parent)
				}
				if s.EndNS < s.StartNS || s.Name == "" {
					t.Errorf("span %d is malformed: %+v", s.ID, s)
				}
			}
		})
	}
}
