package analysis_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/entropy"
	"repro/internal/analysis/passes/errwrap"
	"repro/internal/analysis/passes/lockorder"
	"repro/internal/analysis/passes/maporder"
)

// TestTreeIsClean is detlint's gate: the four passes over every
// package analysis.Default() scopes, with zero findings. One
// `go list -deps -export` names the module's packages dependency-first
// together with the export data of everything they import; each
// in-scope package is type-checked from its non-test source against
// that export data, and one analysis.Run walks them all in that order,
// so lockorder's summaries hold each dependency's functions before
// its importers are analyzed. A finding fails the test as
// file:line: analyzer: message, with the file named from the module
// root.
//
// It also fails when analysis.Default() has a scope pattern that
// matches no package, which every pass would skip silently.
func TestTreeIsClean(t *testing.T) {
	root, err := filepath.Abs("../..") // the module root, seen from this package
	if err != nil {
		t.Fatal(err)
	}
	pkgs := analysistest.GoList(t, root, "./...")
	cfg := analysis.Default()
	suite := []*analysis.Analyzer{entropy.Analyzer, maporder.Analyzer, errwrap.Analyzer, lockorder.Analyzer}
	fset := token.NewFileSet()
	gc := analysistest.Exports(fset, pkgs)

	var scoped []*analysis.Package
	for _, p := range pkgs {
		if cfg.InScope(p.ImportPath) {
			scoped = append(scoped, typeCheck(t, fset, gc, root, p))
		}
	}
	diags, err := analysis.Run(fset, cfg, suite, scoped...)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		t.Errorf("%s:%d: %s: %s", posn.Filename, posn.Line, d.Analyzer, d.Message)
	}

	for _, scope := range [][]string{cfg.Deterministic, cfg.ErrorSurface, cfg.LockScope} {
		for _, pattern := range scope {
			if !slices.ContainsFunc(pkgs, func(p analysistest.Listed) bool { return analysis.Match([]string{pattern}, p.ImportPath) }) {
				t.Errorf("analysis.Default(): scope pattern %s matches no package", pattern)
			}
		}
	}
}

// typeCheck parses a listed package's non-test files, naming them by
// their path from the module root, and type-checks them, resolving
// imports through the package's ImportMap to the export data go list
// produced.
func typeCheck(t *testing.T, fset *token.FileSet, gc types.Importer, root string, p analysistest.Listed) *analysis.Package {
	t.Helper()
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{
		Importer: analysistest.ImporterFunc(func(path string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			return gc.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: "go" + p.Module.GoVersion,
	}
	pkg, err := tc.Check(p.ImportPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", p.ImportPath, err)
	}
	return &analysis.Package{Files: files, Path: p.ImportPath, Types: pkg, Info: info}
}
