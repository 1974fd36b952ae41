package analysis

import (
	"go/ast"
)

// CtxPoll enforces cancellation responsiveness in the pull executors: a
// function annotated `//ssd:ctxpoll` promises that its unbounded loops poll
// for cancellation, so every outermost `for` statement in it must contain a
// poll — a call to a `//ssd:poll`-annotated helper (executor.cancelled,
// Traversal.cancelled) or a direct ctx.Err()/ctx.Done() consultation.
//
// Range statements are exempt as targets (they are bounded by their
// operand) but do not shield a `for` nested inside them: a bounded outer
// range over an unbounded inner loop is still unbounded. Loops nested
// inside a polled-candidate `for` are skipped — the outer iteration already
// bounds the latency between polls to one outer step.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "//ssd:ctxpoll functions must poll cancellation in every outermost for-loop",
	Run:  runCtxPoll,
}

func runCtxPoll(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasVerb(declDirectives(pass.Pkg, pass.Index, fd), "ctxpoll") {
				continue
			}
			checkCtxPollDecl(pass, fd)
		}
	}
}

func checkCtxPollDecl(pass *Pass, fd *ast.FuncDecl) {
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		for _, anc := range stack {
			if _, ok := anc.(*ast.ForStmt); ok {
				return true // inner loop: the outer polled loop bounds it
			}
		}
		if !containsPoll(pass, loop.Body) {
			pass.Reportf(loop.Pos(),
				"unbounded for-loop in //ssd:ctxpoll function %s has no cancellation poll: call a //ssd:poll helper or check ctx.Err()/ctx.Done() in the loop body",
				fd.Name.Name)
		}
		return true
	})
}

// containsPoll reports whether body contains a cancellation poll: a call to
// a //ssd:poll-annotated function, or an Err/Done method call on a
// context.Context value.
func containsPoll(pass *Pass, body ast.Node) bool {
	info := pass.Pkg.Info
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if hasVerb(pass.Index.FuncDirectives(calleeFunc(info, call)), "poll") {
			found = true
			return false
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Err" || sel.Sel.Name == "Done" {
				if tv, ok := info.Types[sel.X]; ok {
					if name, ok := namedOf(tv.Type); ok && name == "context.Context" {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}
