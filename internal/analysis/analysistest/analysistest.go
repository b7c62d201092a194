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
// Golden packages are type-checked against stub imports: each import
// resolves to an empty package, undefined-member errors are ignored,
// and analyzers see exactly the partial type information they must
// tolerate. This keeps the harness hermetic — no export data, no
// GOPATH, no network — which is what lets the suite run in this repo's
// offline build.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run analyzes each named package under dir/src, in order, and checks
// the findings against the // want comments in its sources.
//
// Packages share one fact store and one importer: a later package that
// imports an earlier one (by its directory name as import path) sees
// both its real type information and the facts the analyzer exported
// for it, the way TestTreeIsClean threads facts through the module.
// Order the packages dependency-first.
func Run(t *testing.T, dir string, a *analysis.Analyzer, cfg *analysis.Config, pkgs ...string) {
	t.Helper()
	imp := stubImporter{make(map[string]*types.Package)}
	facts := analysis.NewFactStore()
	for _, pkg := range pkgs {
		runOne(t, filepath.Join(dir, "src", pkg), pkg, a, cfg, imp, facts)
		facts.Seal(pkg)
	}
}

func runOne(t *testing.T, dir, pkgPath string, a *analysis.Analyzer, cfg *analysis.Config, imp stubImporter, facts *analysis.FactStore) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{
		Importer: imp,
		Error:    func(error) {}, // stub imports guarantee errors; analyzers must cope
	}
	pkg, _ := tc.Check(pkgPath, fset, files, info)
	if pkg != nil {
		// Later fixture packages import this one for real.
		pkg.MarkComplete()
		imp.pkgs[pkgPath] = pkg
	}
	diags, err := analysis.RunFacts(&analysis.Package{
		Fset:  fset,
		Files: files,
		Path:  pkgPath,
		Types: pkg,
		Info:  info,
	}, cfg, []*analysis.Analyzer{a}, facts)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
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

// stubImporter resolves every import to an empty, complete package
// named after the path's last element.
type stubImporter struct {
	pkgs map[string]*types.Package
}

func (s stubImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := s.pkgs[path]; p != nil {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	s.pkgs[path] = p
	return p, nil
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
