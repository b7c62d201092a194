package analysis_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/entropy"
	"repro/internal/analysis/passes/errwrap"
	"repro/internal/analysis/passes/lockorder"
	"repro/internal/analysis/passes/maporder"
)

// listed is the part of a `go list -json` record the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	Module     *struct{ GoVersion string }
}

// TestTreeIsClean is detlint's gate: the four passes over every
// package analysis.Default() scopes, with zero findings. One
// `go list -deps -export` names the module's packages dependency-first
// together with the export data of everything they import; each
// in-scope package is type-checked from its non-test source against
// that export data, and one analysis.Run walks them all in that order,
// so lockorder's one graph holds each dependency's summaries before
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
	pkgs := goList(t, root)
	cfg := analysis.Default()
	suite := []*analysis.Analyzer{entropy.Analyzer, maporder.Analyzer, errwrap.Analyzer, lockorder.Analyzer}

	export := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})

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
			if !slices.ContainsFunc(pkgs, func(p listed) bool { return analysis.Match([]string{pattern}, p.ImportPath) }) {
				t.Errorf("analysis.Default(): scope pattern %s matches no package", pattern)
			}
		}
	}
}

// goList runs `go list -deps -export -json ./...` in the module root
// and decodes its stream of records. The module has no requirements,
// so module and toolchain downloads are switched off: the listing
// never touches the network.
func goList(t *testing.T, root string) []listed {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// typeCheck parses a listed package's non-test files, naming them by
// their path from the module root, and type-checks them, resolving
// imports through the package's ImportMap to the export data go list
// produced.
func typeCheck(t *testing.T, fset *token.FileSet, gc types.Importer, root string, p listed) *analysis.Package {
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
		Importer: importerFunc(func(path string) (*types.Package, error) {
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

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
