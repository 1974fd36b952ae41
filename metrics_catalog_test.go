package repro

import (
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestMetricCatalogDocumented diffs the live metric registry against
// ARCHITECTURE.md: every ssd_* family a durable server and a router register
// (package-level series plus the per-endpoint ones their handlers add) must
// be spelled out in the document, so the catalog cannot drift from the code.
func TestMetricCatalogDocumented(t *testing.T) {
	db, err := core.OpenPath(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	leader := httptest.NewServer(server.New(db, server.Config{}).Handler())
	defer leader.Close()
	rt := server.NewRouter(server.RouterConfig{Leader: leader.URL})
	defer rt.Stop()
	rt.Handler()

	doc, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`ssd_[a-z0-9_]+`).FindAllString(string(doc), -1) {
		documented[name] = true
	}
	families := map[string]bool{}
	for _, m := range obs.Default.Snapshot().Metrics {
		family, _, _ := strings.Cut(m.Name, "{")
		if !strings.HasPrefix(family, "ssd_") || families[family] {
			continue
		}
		families[family] = true
		if !documented[family] {
			t.Errorf("metric family %s is registered but not named in ARCHITECTURE.md", family)
		}
	}
	if len(families) < 40 {
		t.Fatalf("only %d ssd_* families registered: the registry was not built", len(families))
	}
}
