package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Index is the whole-load annotation view: every //ssd: directive found in
// any loaded package, keyed by cross-package symbol strings, plus the
// derived structures the analyzers consume (mustclose and mustunpin handle
// types). Build it once over all packages, then hand it to every pass —
// that is how core sees the annotations on mutate.WAL methods without a
// facts protocol.
type Index struct {
	Funcs  map[string][]Directive // "pkg.Func" / "pkg.Type.Method"
	Fields map[string][]Directive // "pkg.Type.field"

	// HandleTypes maps "pkg.Type" of every mustclose function's first
	// handle-shaped result to true: closecheck extends its Next/Err
	// discipline to parameters of these types.
	HandleTypes map[string]bool

	// PinTypes maps "pkg.Type" of every mustunpin function's first
	// handle-shaped result to true: pincheck tracks locals of these types
	// (page accessors, whose forgotten pins inflate the buffer pool's
	// pinned set past its budget).
	PinTypes map[string]bool
}

// FuncDirectives returns the directives on the declaration of fn.
func (ix *Index) FuncDirectives(fn *types.Func) []Directive {
	if fn == nil {
		return nil
	}
	return ix.Funcs[funcKey(fn)]
}

// BuildIndex collects annotations from every loaded package.
func BuildIndex(pkgs []*Package) *Index {
	ix := &Index{
		Funcs:       make(map[string][]Directive),
		Fields:      make(map[string][]Directive),
		HandleTypes: make(map[string]bool),
		PinTypes:    make(map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					ix.addFunc(pkg, d)
				case *ast.GenDecl:
					if d.Tok == token.TYPE {
						for _, spec := range d.Specs {
							if ts, ok := spec.(*ast.TypeSpec); ok {
								ix.addType(pkg, ts)
							}
						}
					}
				}
			}
		}
	}
	return ix
}

func (ix *Index) addFunc(pkg *Package, d *ast.FuncDecl) {
	ds := parseDirectives(d.Doc)
	if len(ds) == 0 {
		return
	}
	fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
	if !ok {
		return
	}
	key := funcKey(fn)
	ix.Funcs[key] = append(ix.Funcs[key], ds...)
	if hasVerb(ds, "mustclose") {
		if ht, ok := handleResult(fn); ok {
			ix.HandleTypes[ht] = true
		}
	}
	if hasVerb(ds, "mustunpin") {
		if ht, ok := handleResult(fn); ok {
			ix.PinTypes[ht] = true
		}
	}
}

// handleResult returns the type key of fn's first pointer-to-named result —
// the handle a mustclose annotation refers to.
func handleResult(fn *types.Func) (string, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if name, ok := namedOf(sig.Results().At(i).Type()); ok && name != "error" {
			return name, true
		}
	}
	return "", false
}

func (ix *Index) addType(pkg *Package, ts *ast.TypeSpec) {
	if it, ok := ts.Type.(*ast.InterfaceType); ok {
		ix.addInterface(pkg, ts, it)
		return
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok || st.Fields == nil {
		return
	}
	owner := pkg.Path + "." + ts.Name.Name
	for _, field := range st.Fields.List {
		ds := parseDirectives(field.Doc)
		ds = append(ds, parseDirectives(field.Comment)...)
		if len(ds) == 0 {
			continue
		}
		for _, nameIdent := range field.Names {
			key := owner + "." + nameIdent.Name
			ix.Fields[key] = append(ix.Fields[key], ds...)
		}
	}
}

// addInterface collects directives from interface method doc comments, so a
// contract like //ssd:mustunpin on AccessorProvider.Accessor binds calls
// made through the interface, not just through a concrete provider. The
// method's funcKey is "pkg.Iface.Method" — exactly what calleeFunc resolves
// for an interface-typed call site.
func (ix *Index) addInterface(pkg *Package, ts *ast.TypeSpec, it *ast.InterfaceType) {
	if it.Methods == nil {
		return
	}
	owner := pkg.Path + "." + ts.Name.Name
	for _, m := range it.Methods.List {
		ds := parseDirectives(m.Doc)
		ds = append(ds, parseDirectives(m.Comment)...)
		if len(ds) == 0 {
			continue
		}
		for _, name := range m.Names {
			key := owner + "." + name.Name
			ix.Funcs[key] = append(ix.Funcs[key], ds...)
			fn, ok := pkg.Info.Defs[name].(*types.Func)
			if !ok {
				continue
			}
			if hasVerb(ds, "mustclose") {
				if ht, ok := handleResult(fn); ok {
					ix.HandleTypes[ht] = true
				}
			}
			if hasVerb(ds, "mustunpin") {
				if ht, ok := handleResult(fn); ok {
					ix.PinTypes[ht] = true
				}
			}
		}
	}
}

// declDirectives returns the directives on a declaration via the index (the
// same parse, but resolved through Defs so key derivation stays in one
// place).
func declDirectives(pkg *Package, ix *Index, d *ast.FuncDecl) []Directive {
	fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
	if !ok {
		return nil
	}
	return ix.Funcs[funcKey(fn)]
}
