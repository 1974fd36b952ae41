// Package analysis is ssdvet's engine: a small, dependency-free analog of
// golang.org/x/tools/go/analysis sized for this repository's needs. Six PRs
// of optimizer, MVCC, WAL, parallel-executor and observability work left
// the engine with invariants that existed only as prose comments — "must
// hold the writer lock", "atomic: health endpoints read it mid-checkpoint",
// "release the accessor's pins on every path". This package turns those
// comments into a machine-checked annotation convention plus a suite of
// project-specific analyzers (lockcheck, atomiccheck, closecheck, pincheck,
// ctxpoll) that cmd/ssdvet runs over the whole module.
//
// The framework is intentionally stdlib-only: packages are enumerated and
// compiled with `go list -export`, type-checked from source with go/types,
// and imports resolved through the gc export data the build cache already
// holds — so ssdvet builds and runs in a hermetic environment with no
// module downloads. The x/tools multichecker extras (nilness, shadow,
// govulncheck) ride alongside in CI, where the network exists.
//
// # Annotation grammar
//
// Annotations are directive comments (no space after //, like //go:) in doc
// comments of functions and struct fields:
//
//	//ssd:requires <lock>      func: every caller must hold <lock>
//	//ssd:locks <lock>         func: acquires <lock> itself (checked)
//	//ssd:atomic               field: plain-typed field accessed only via
//	                           &f arguments to sync/atomic functions
//	//ssd:mustclose            func: the returned handle must be closed on
//	                           all paths, and Err consulted after Next
//	//ssd:mustunpin            func: the returned accessor must be Released
//	                           on all paths (its pins charge the page pool)
//	//ssd:ctxpoll              func: every unbounded loop in it must poll
//	                           the context (directly or via a poll helper)
//	//ssd:poll                 func: counts as a context poll for ctxpoll
//
// One call-site waiver exists for provably single-threaded phases
// (construction, crash recovery before the handle is published):
//
//	//ssd:nolock <lock>: <reason>
//
// placed on the call's line or the line above. The reason is mandatory;
// lockcheck rejects a bare waiver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one analyzer, mirroring x/tools'
// analysis.Pass. Index gives analyzers the whole-load annotation view, so
// cross-package contracts (core calling an annotated mutate.WAL method)
// resolve without a facts mechanism.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Index    *Index

	report func(Finding)
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Suite returns the full analyzer suite, optionally filtered to a
// comma-separated subset of names (empty = all). Unknown names error so a
// typo in CI cannot silently skip a checker.
func Suite(only string) ([]*Analyzer, error) {
	all := []*Analyzer{LockCheck, AtomicCheck, CloseCheck, PinCheck, CtxPoll}
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies each analyzer to each package and returns the
// findings sorted by position.
func RunAnalyzers(pkgs []*Package, idx *Index, as []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range as {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				Index:    idx,
				report:   func(f Finding) { findings = append(findings, f) },
			}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// ---------------------------------------------------------------------------
// Directives

// Directive is one parsed //ssd: annotation.
type Directive struct {
	Verb string   // "requires", "locks", "atomic", ...
	Args []string // whitespace-split arguments
	Pos  token.Pos
}

// parseDirectives extracts //ssd: directives from a comment group.
func parseDirectives(cg *ast.CommentGroup) []Directive {
	if cg == nil {
		return nil
	}
	var out []Directive
	for _, c := range cg.List {
		d, ok := parseDirective(c)
		if ok {
			out = append(out, d)
		}
	}
	return out
}

func parseDirective(c *ast.Comment) (Directive, bool) {
	body, ok := strings.CutPrefix(c.Text, "//ssd:")
	if !ok {
		return Directive{}, false
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return Directive{}, false
	}
	return Directive{Verb: fields[0], Args: fields[1:], Pos: c.Pos()}, true
}

func hasVerb(ds []Directive, verb string) bool {
	for _, d := range ds {
		if d.Verb == verb {
			return true
		}
	}
	return false
}

func argsOf(ds []Directive, verb string) [][]string {
	var out [][]string
	for _, d := range ds {
		if d.Verb == verb {
			out = append(out, d.Args)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Symbol keys
//
// Annotations collected while type-checking one package must be visible
// when analyzing another that sees the same function only through export
// data — a different types.Object universe. String keys of the form
// "pkgpath.Func", "pkgpath.Type.Method" or "pkgpath.Type.field" are stable
// across both views.

// funcKey returns the cross-package key for a function or method object.
func funcKey(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			if name, ok := namedOf(recv.Type()); ok {
				return name + "." + fn.Name()
			}
			return "?." + fn.Name()
		}
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// namedOf resolves t (through pointers and aliases) to "pkgpath.TypeName".
func namedOf(t types.Type) (string, bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			obj := u.Obj()
			if obj.Pkg() == nil {
				return obj.Name(), true
			}
			return obj.Pkg().Path() + "." + obj.Name(), true
		default:
			return "", false
		}
	}
}

// calleeFunc resolves the called function object of a call expression, or
// nil for builtins, conversions and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
