package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServingBinariesImportNoSurveyPackages: the paper-survey packages are
// leaves that take a *ssd.Graph; the serving tier's import graph does not
// contain them. ssdserve still reaches relstore through workload, for -demo.
func TestServingBinariesImportNoSurveyPackages(t *testing.T) {
	survey := []string{"schema", "oem", "decomp", "views"}
	for _, c := range []struct {
		pkg       string
		forbidden []string
	}{
		{"./internal/server", append([]string{"relstore"}, survey...)},
		{"./cmd/ssdrouter", append([]string{"relstore"}, survey...)},
		{"./cmd/ssdserve", survey},
	} {
		out, err := exec.Command("go", "list", "-deps", c.pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", c.pkg, err)
		}
		deps := map[string]bool{}
		for _, p := range strings.Fields(string(out)) {
			deps[p] = true
		}
		for _, f := range c.forbidden {
			if deps["repro/internal/"+f] {
				t.Errorf("%s depends on internal/%s", c.pkg, f)
			}
		}
	}
}

// TestNoBinaryImportsOracle: the reference evaluator (internal/oracle) is a
// test contract, not an engine; no binary or example links it.
func TestNoBinaryImportsOracle(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, p := range strings.Fields(string(out)) {
		if p == "repro/internal/oracle" {
			t.Fatal("a package under ./cmd or ./examples depends on repro/internal/oracle")
		}
	}
}

// TestCoreAndStorageImportNoDataGuide: the DataGuide is an offline tool and
// a planner input for callers that pass one; the serving handle and the
// snapshot codec neither build, maintain nor persist it.
func TestCoreAndStorageImportNoDataGuide(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}: {{.Imports}}", "./internal/core", "./internal/storage").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if strings.Contains(line, "repro/internal/dataguide") {
			t.Errorf("imports the DataGuide: %s", line)
		}
	}
}
