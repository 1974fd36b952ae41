package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CloseCheck enforces the cursor lifecycle on handles returned by
// //ssd:mustclose functions (Stmt.Query, Plan.Cursor):
//
//   - The handle must be closed: a local variable bound to a mustclose
//     result needs a `.Close()` call (deferred or direct) somewhere in the
//     function, unless the handle escapes — returned, passed to another
//     function, or stored into a struct/field — in which case the receiver
//     owns the lifecycle.
//   - Exhaustion is not success: any handle (local or parameter) of a
//     mustclose handle type that is iterated with `.Next()` must consult
//     `.Err()` in the same function. This is the PR 4 bug class — a
//     mid-stream failure surfaced by Next returning false looks exactly
//     like a clean end of data until Err is asked.
//
// The escape analysis is deliberately coarse (any non-method use counts as
// an escape): it trades missed reports for zero false positives on
// ownership-transfer idioms like `return streamRows(rows, limit)`.
var CloseCheck = &Analyzer{
	Name: "closecheck",
	Doc:  "handles from //ssd:mustclose functions must be closed and Err-checked",
	Run:  runCloseCheck,
}

func runCloseCheck(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCloseDecl(pass, fd)
		}
	}
}

// handleState tracks one handle variable through a function body. Function
// literals are analyzed together with their enclosing declaration: a
// closure closing over a handle is a legitimate place to Close it.
type handleState struct {
	obj       types.Object
	bindPos   token.Pos // the creating call (locals) or parameter position
	local     bool      // bound from a mustclose call in this function
	escaped   bool
	hasClose  bool
	hasErr    bool
	firstNext token.Pos
}

func checkCloseDecl(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	handles := make(map[types.Object]*handleState)

	// Parameters of handle types join the Err discipline: a helper that
	// drains a cursor it was handed must still distinguish exhaustion from
	// failure. Close stays the creator's problem.
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if tn, ok := namedOf(obj.Type()); ok && pass.Index.HandleTypes[tn] {
					handles[obj] = &handleState{obj: obj, bindPos: name.Pos()}
				}
			}
		}
	}

	// Pass 1: find handle bindings — `h, err := mustCloseCall(...)` and
	// `h, err = mustCloseCall(...)`.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		if !hasVerb(pass.Index.FuncDirectives(calleeFunc(info, call)), "mustclose") {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if tn, ok := namedOf(obj.Type()); ok && pass.Index.HandleTypes[tn] {
				if h := handles[obj]; h != nil {
					h.local = true // parameter rebound to a fresh handle
					continue
				}
				handles[obj] = &handleState{obj: obj, bindPos: call.Pos(), local: true}
			}
		}
		return true
	})
	if len(handles) == 0 {
		return
	}

	// Pass 2: classify every use of each handle.
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		h, ok := handles[obj]
		if !ok {
			return true
		}
		if len(stack) > 0 {
			switch p := stack[len(stack)-1].(type) {
			case *ast.SelectorExpr:
				if p.X == id {
					switch p.Sel.Name {
					case "Close":
						h.hasClose = true
					case "Err":
						h.hasErr = true
					case "Next":
						if h.firstNext == token.NoPos {
							h.firstNext = p.Pos()
						}
					}
					return true // method/field access, not an escape
				}
			case *ast.AssignStmt:
				// The binding assignment's own LHS mention is not a use.
				for _, lhs := range p.Lhs {
					if lhs == ast.Expr(id) {
						return true
					}
				}
			}
		}
		h.escaped = true
		return true
	})

	for _, h := range handles {
		if h.local && !h.escaped && !h.hasClose {
			pass.Reportf(h.bindPos,
				"result of //ssd:mustclose call is never closed: call Close on every path (defer it) or hand the handle off")
		}
		if !h.escaped && h.firstNext != token.NoPos && !h.hasErr {
			pass.Reportf(h.firstNext,
				"cursor iterated to exhaustion without consulting Err(): a mid-stream failure is indistinguishable from clean completion (check Err after the Next loop)")
		}
	}
}
