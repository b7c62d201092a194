// Package analysistest runs one analyzer over golden packages under a
// testdata directory and diffs its findings against expectations
// written in the sources, mirroring x/tools' analysistest:
//
//	m := map[string]int{}
//	for k := range m { // want `iteration order is nondeterministic`
//		emit(k)
//	}
//
// A `// want` comment holds one or more Go-quoted regular expressions,
// each of which must match a distinct diagnostic reported on that
// line; diagnostics without a matching want, and wants without a
// matching diagnostic, fail the test.
//
// Golden packages are type-checked in full, as TestTreeIsClean checks
// the module: the standard library resolves through the export data one
// GoList names, an import of an earlier golden package resolves to that
// package as checked, and a type error fails the test.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Listed is the part of a `go list -json` record the loaders read.
type Listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	Module     *struct{ GoVersion string }
}

// GoList runs one `go list -deps -export -json` over the patterns in
// dir and decodes its records, dependency-first, each with the export
// data of its package. The module has no requirements, so module and
// toolchain downloads are switched off: the listing never touches the
// network.
func GoList(t *testing.T, dir string, patterns ...string) []Listed {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []Listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p Listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// Exports is a gc importer over the export data of listed packages.
func Exports(fset *token.FileSet, pkgs []Listed) types.Importer {
	export := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})
}

// ImporterFunc is a function that is a types.Importer.
type ImporterFunc func(path string) (*types.Package, error)

// Import calls f.
func (f ImporterFunc) Import(path string) (*types.Package, error) { return f(path) }

// Run analyzes the named packages under dir/src, in order, in one
// analysis.Run, and checks the findings against the // want comments in
// their sources.
//
// A later package that imports an earlier one (by its directory name as
// import path) sees its type information and whatever the analyzer kept
// for it (analysis.Pass.Shared), the way TestTreeIsClean walks the
// module. Order the packages dependency-first.
func Run(t *testing.T, dir string, a *analysis.Analyzer, cfg *analysis.Config, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	parsed := make([][]*ast.File, len(pkgs))
	var imports []string
	for i, path := range pkgs {
		fs, err := parseDir(fset, filepath.Join(dir, "src", path))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		parsed[i] = fs
		for _, f := range fs {
			for _, spec := range f.Imports {
				imp, _ := strconv.Unquote(spec.Path.Value)
				if !slices.Contains(pkgs, imp) {
					imports = append(imports, imp)
				}
			}
		}
	}
	// One listing for every import outside the golden packages: the gc
	// importer's own lookup would run one `go list` per import.
	var listed []Listed
	if len(imports) > 0 {
		listed = GoList(t, ".", imports...)
	}
	std := Exports(fset, listed)
	checked := make(map[string]*types.Package)
	tc := &types.Config{Importer: ImporterFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var all []*analysis.Package
	var files []*ast.File
	for i, path := range pkgs {
		fs := parsed[i]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		pkg, err := tc.Check(path, fset, fs, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		checked[path] = pkg
		all = append(all, &analysis.Package{Files: fs, Path: path, Types: pkg, Info: info})
		files = append(files, fs...)
	}
	diags, err := analysis.Run(fset, cfg, []*analysis.Analyzer{a}, all...)
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, fset, files)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		key := lineKey{posn.Filename, posn.Line}
		if !wants.match(key, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re.String())
			}
		}
	}
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

type wantMap map[lineKey][]*want

func (m wantMap) match(key lineKey, message string) bool {
	for _, w := range m[key] {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantRe is unanchored so an expectation can trail another directive
// in the same comment (e.g. after //detlint:allow ... ).
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) wantMap {
	t.Helper()
	wants := make(wantMap)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Slash)
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want pattern %q: %v", posn, rest, err)
					}
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: malformed want pattern %q: %v", posn, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp: %v", posn, err)
					}
					key := lineKey{posn.Filename, posn.Line}
					wants[key] = append(wants[key], &want{re: re})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return wants
}
