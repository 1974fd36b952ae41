package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeDoc(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadMeansRepeatedRuns(t *testing.T) {
	p := writeDoc(t, "b.json", `{"benchmarks":[
		{"name":"BenchmarkPlannedVsNaive/x","iters":3,"metrics":{"ns/op":100}},
		{"name":"BenchmarkPlannedVsNaive/x","iters":3,"metrics":{"ns/op":300}},
		{"name":"BenchmarkOther","iters":1,"metrics":{"B/op":8}}
	]}`)
	means, err := load(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := means["BenchmarkPlannedVsNaive/x"]; got != 200 {
		t.Errorf("mean = %v, want 200", got)
	}
	// Entries without ns/op are not comparable and must be dropped.
	if _, ok := means["BenchmarkOther"]; ok {
		t.Error("metric-less benchmark survived load")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := load(writeDoc(t, "bad.json", `{"benchmarks":[]}`)); err == nil {
		t.Error("empty document accepted")
	}
	if _, err := load(writeDoc(t, "bad2.json", `not json`)); err == nil {
		t.Error("malformed document accepted")
	}
}

func TestMatches(t *testing.T) {
	prefixes := []string{"BenchmarkPlannedVsNaive", "BenchmarkStatsMaintenance"}
	for name, want := range map[string]bool{
		"BenchmarkPlannedVsNaive/planned/e1-path-heavy/entries=500-4": true,
		"BenchmarkStatsMaintenance/apply-4":                           true,
		"BenchmarkBrowsingScan-4":                                     false,
		"":                                                            false,
	} {
		if got := matches(name, prefixes); got != want {
			t.Errorf("matches(%q) = %v, want %v", name, got, want)
		}
	}
}
