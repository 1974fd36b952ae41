package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runAnalyzerTest loads the fixture package at testdata/src/<rel>, runs one
// analyzer over it, and matches the findings against `// want "regexp"`
// expectations in the fixture source — the analysistest contract: every
// line carrying a want comment must produce a matching diagnostic, and
// every diagnostic must be expected.
func runAnalyzerTest(t *testing.T, a *Analyzer, rel string) {
	t.Helper()
	root := repoRoot(t)
	pattern := "./" + filepath.ToSlash(filepath.Join("internal/analysis/testdata/src", rel))
	pkgs, err := Load(root, pattern)
	if err != nil {
		t.Fatalf("load %s: %v", pattern, err)
	}
	idx := BuildIndex(pkgs)
	findings := RunAnalyzers(pkgs, idx, []*Analyzer{a})

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string]*want) // "file:line"
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			for line, expr := range wantComments(t, name) {
				re, err := regexp.Compile(expr)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, line, expr, err)
				}
				wants[fmt.Sprintf("%s:%d", name, line)] = &want{re: re}
			}
		}
	}

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		w := wants[key]
		switch {
		case w == nil:
			t.Errorf("unexpected diagnostic at %s: %s", key, f.Message)
		case !w.re.MatchString(f.Message):
			t.Errorf("diagnostic at %s does not match want %q: %s", key, w.re, f.Message)
		default:
			w.matched = true
		}
	}
	for key, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic at %s matching %q", key, w.re)
		}
	}
}

// wantComments extracts `// want "re"` / `// want `+"`re`"+“ trailers per
// line. It scans raw source lines rather than the comment AST so that a
// want can annotate a line whose trailing comment is itself a directive
// under test.
func wantComments(t *testing.T, filename string) map[int]string {
	t.Helper()
	f, err := os.Open(filename)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[int]string)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		i := strings.Index(text, "// want ")
		if i < 0 {
			continue
		}
		arg := strings.TrimSpace(text[i+len("// want "):])
		switch {
		case strings.HasPrefix(arg, "`"):
			arg = strings.Trim(arg, "`")
		case strings.HasPrefix(arg, `"`):
			unq, err := strconv.Unquote(arg)
			if err != nil {
				t.Fatalf("%s:%d: bad want string %s: %v", filename, line, arg, err)
			}
			arg = unq
		default:
			t.Fatalf("%s:%d: want argument must be a quoted or backquoted regexp, got %s", filename, line, arg)
		}
		out[line] = arg
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLockCheck(t *testing.T)   { runAnalyzerTest(t, LockCheck, "lockcheck/a") }
func TestAtomicCheck(t *testing.T) { runAnalyzerTest(t, AtomicCheck, "atomiccheck/a") }
func TestCloseCheck(t *testing.T)  { runAnalyzerTest(t, CloseCheck, "closecheck/a") }
func TestPinCheck(t *testing.T)    { runAnalyzerTest(t, PinCheck, "pincheck/a") }
func TestCtxPoll(t *testing.T)     { runAnalyzerTest(t, CtxPoll, "ctxpoll/a") }

// TestSuiteFilter pins the -only flag contract: comma filtering and the
// error on unknown names.
func TestSuiteFilter(t *testing.T) {
	as, err := Suite("lockcheck,ctxpoll")
	if err != nil || len(as) != 2 {
		t.Fatalf("Suite filter: got %d analyzers, err %v", len(as), err)
	}
	if _, err := Suite("nosuch"); err == nil {
		t.Fatal("Suite accepted an unknown analyzer name")
	}
}

// TestRepoInvariantsClean runs the full suite over the engine packages the
// annotations live in: the repo's own invariants must hold at all times.
func TestRepoInvariantsClean(t *testing.T) {
	root := repoRoot(t)
	pkgs, err := Load(root, "./internal/...", "./cmd/...", "./examples/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	as, err := Suite("")
	if err != nil {
		t.Fatal(err)
	}
	findings := RunAnalyzers(pkgs, BuildIndex(pkgs), as)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
