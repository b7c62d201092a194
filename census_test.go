//go:build census

// The reachability census: every non-test function of the root module
// is either linked into a binary or named, with its reason, in
// testdata/unreached.txt. A helper only tests call belongs in a
// _test.go file, and an allow-list entry that a binary has come to
// reach, or whose function is gone, is stale. Both fail the census.
//
// It builds the three binaries, so tier-1 leaves it out:
//
//	go test -tags census -run TestReachability -v .
package repro_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// binaries are what the census links, by package directory: the two
// commands of this module and the benchmark's own module.
var binaries = []string{"cmd/fluidsim", "cmd/experiments", "bench"}

// uncounted are the trees the census does not count: detlint runs only
// inside its own tests, and leakcheck only inside TestMain.
var uncounted = []string{"bench", "internal/analysis", "internal/leakcheck"}

const allowList = "testdata/unreached.txt"

func TestReachability(t *testing.T) {
	linked := make(map[string]bool)
	for _, dir := range binaries {
		for _, sym := range textSymbols(t, dir) {
			linked[sym] = true
		}
	}
	var unreached []string
	for _, fn := range funcDecls(t) {
		if !linked[fn] {
			unreached = append(unreached, fn)
		}
	}
	allowed := readAllowList(t)
	t.Logf("%d unreached non-test functions", len(unreached))
	for _, fn := range unreached {
		reason, ok := allowed[fn]
		if !ok {
			t.Errorf("%s: no binary reaches it; delete it, move it into a _test.go file, or list it with its reason in %s", fn, allowList)
			continue
		}
		t.Logf("%s: %s", fn, reason)
	}
	for _, fn := range slices.Sorted(maps.Keys(allowed)) {
		if !slices.Contains(unreached, fn) {
			t.Errorf("%s: listed in %s, but a binary reaches it or it is gone", fn, allowList)
		}
	}
}

// textSymbols builds the binary in dir with inlining off, so no call is
// hidden in its caller, and returns its function symbols under the
// names funcDecls gives: generic shapes stripped, and a command's main
// package named by its import path.
func textSymbols(t *testing.T, dir string) []string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(dir))
	build := exec.Command("go", "build", "-C", dir, "-gcflags=all=-l", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", dir, err, out)
	}
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", bin, err)
	}
	var syms []string
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		sym := stripShapes(f[2])
		if rest, ok := strings.CutPrefix(sym, "main."); ok {
			sym = "repro/" + dir + "." + rest
		}
		syms = append(syms, sym)
	}
	return syms
}

// stripShapes drops every bracketed group, so the instantiation
// core.newJob[go.shape.*uint8,...] reads as core.newJob.
func stripShapes(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcDecls names every function and method declared in a non-test
// file of the counted packages, as the linker names its symbol:
// repro/internal/grid.(*Field).Add or repro/internal/grid.New. init
// functions, which every binary importing the package runs, are left
// out.
func funcDecls(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." || slices.Contains(uncounted, path) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil && fn.Name.Name == "init" {
				continue
			}
			names = append(names, pkg+"."+receiver(fn)+fn.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	return names
}

// receiver returns "(*T)." or "T." for a method and "" for a function,
// with any type parameters dropped.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// readAllowList reads the allow-list: one function a line, its name and
// then the reason no binary needs to reach it. A line without a reason
// fails the census.
func readAllowList(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(allowList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Errorf("%s:%d: %s has no reason", allowList, n, name)
		}
		allowed[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}
