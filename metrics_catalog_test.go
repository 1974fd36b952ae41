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
// ARCHITECTURE.md in both directions: every ssd_* family a durable server
// and a router register (package-level series plus the per-endpoint ones
// their handlers add) must be spelled out in the document, and every ssd_*
// name the document spells out must be registered — as a family, as one of
// a histogram's _bucket/_sum/_count series, or as the prefix of a family
// (prose such as "the ssd_pagepool families") — so the catalog cannot drift
// from the code either way.
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
	for name := range documented {
		if !registered(families, name) {
			t.Errorf("ARCHITECTURE.md names %s, but no metric family by that name (or with that prefix) is registered", name)
		}
	}
}

// registered reports whether a name the document uses denotes something in
// the registry: a family, a histogram series of one, or a family prefix.
func registered(families map[string]bool, name string) bool {
	for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && families[base] {
			return true
		}
	}
	for f := range families {
		if strings.HasPrefix(f, name) {
			return true
		}
	}
	return false
}
