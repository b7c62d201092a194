// Package dataflow is the naming substrate of lockorder, detlint's one
// cross-package pass: a canonical key for functions and struct fields, a
// per-function walker that pairs each declaration with its key, and static
// callee resolution. The pass builds per-package summaries keyed by these
// names, exports them as facts, and stitches dependency summaries back in
// at the importing package — which is how a pass that sees one package at
// a time reasons about a lock taken in internal/msg under one held in farm.
//
// Keys are flat strings so they survive the JSON fact round trip:
//
//	pkgpath.FuncName         top-level function
//	pkgpath.Recv.Name        method (pointer markers stripped)
//	pkgpath.Type.Field       struct field
//
// Pointer receivers are stripped because Go forbids declaring the same
// method name on both T and *T, so the short form is unambiguous.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// A Func pairs one function or method declaration with its key.
type Func struct {
	Key  string
	Decl *ast.FuncDecl
}

// Functions yields every function and method declared in the package's
// non-test files, in file order. Declarations without bodies (assembly
// stubs) are skipped; they cannot contribute summary content.
func Functions(pass *analysis.Pass) []Func {
	var out []Func
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, Func{Key: DeclKey(pass, fd), Decl: fd})
		}
	}
	return out
}

// DeclKey returns the canonical key for a declaration in the current
// package. It is computed syntactically so it works even when the type
// checker had nothing to say about the declaration.
func DeclKey(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pass.PkgPath + "." + fd.Name.Name
	}
	return pass.PkgPath + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return "?"
}

// FuncKey returns the canonical key for a resolved function object.
func FuncKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if name := namedRecvName(sig.Recv().Type()); name != "" {
			return pkg + "." + name + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

func namedRecvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// CalleeKey resolves a call's static callee to its canonical key.
// ok is false for builtins, function-typed values, and calls the
// checker could not resolve (interface methods stay resolvable — the
// key names the interface method, which is as precise as a static
// summary gets). Under partial type information a package-qualified
// selector degrades to pkgpath.Name via the package-name binding.
func CalleeKey(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	info := pass.TypesInfo
	if info == nil {
		return "", false
	}
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch e := fun.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if sub, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			id = sub
		} else if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return "", false
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return FuncKey(fn), true
	}
	// Partial info fallback: a selector off a package name whose
	// contents the stub importer left empty.
	if pkgPath, name, ok := analysis.CalleeOf(info, call); ok {
		return pkgPath + "." + name, true
	}
	return "", false
}

// FieldKey resolves a selector expression to a struct-field key
// (pkg.Type.Field), or ok=false when the selector is not a field
// access on a named struct type.
func FieldKey(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	if info == nil {
		return "", false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || v.Pkg() == nil {
		return "", false
	}
	name := namedRecvName(s.Recv())
	if name == "" {
		return "", false
	}
	return v.Pkg().Path() + "." + name + "." + v.Name(), true
}

// Posn formats a position for inclusion in a cross-package fact, where
// a token.Pos from another fileset would be meaningless.
func Posn(fset *token.FileSet, pos token.Pos) string {
	return fset.Position(pos).String()
}
