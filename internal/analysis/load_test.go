package analysis

import (
	"go/ast"
	"go/types"
	"testing"
)

// TestLoadResolvesCrossPackageTypes is the loader's contract test: target
// packages type-check from source with imports (std and intra-module alike)
// resolved through the build cache's gc export data, with full use/selection
// info — the substrate every analyzer stands on.
func TestLoadResolvesCrossPackageTypes(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/ssd", "./internal/mutate")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	if byPath["repro/internal/ssd"] == nil {
		t.Fatalf("repro/internal/ssd not loaded: %v", byPath)
	}
	mut := byPath["repro/internal/mutate"]
	if mut == nil {
		t.Fatal("repro/internal/mutate not loaded")
	}
	// The WAL.end field must resolve to a sync/atomic type: atomiccheck
	// keys on exactly this.
	w := mut.Types.Scope().Lookup("WAL")
	if w == nil {
		t.Fatal("mutate.WAL not found")
	}
	st, ok := w.Type().Underlying().(*types.Struct)
	if !ok {
		t.Fatalf("mutate.WAL is %T, want struct", w.Type().Underlying())
	}
	found := false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != "end" {
			continue
		}
		found = true
		if name, ok := namedOf(f.Type()); !ok || name != "sync/atomic.Int64" {
			t.Errorf("WAL.end resolved to %q, want sync/atomic.Int64", name)
		}
	}
	if !found {
		t.Error("WAL.end field not found")
	}

	// mutate imports ssd and storage: a selector into an imported package
	// must carry a resolved *types.Func.
	foundCall := false
	for _, f := range mut.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(mut.Info, call); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "repro/internal/storage" {
				foundCall = true
			}
			return true
		})
	}
	if !foundCall {
		t.Error("no resolved call into repro/internal/storage found in mutate")
	}
}
