package unitchecker

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// roundtrip exports a marker fact from every package it analyzes and
// reports one diagnostic per dependency fact it can see, so the test
// can observe facts crossing package boundaries through vetx files.
var roundtrip = &analysis.Analyzer{
	Name: "roundtrip",
	Doc:  "export a marker fact and report every dependency fact seen",
	Run: func(pass *analysis.Pass) error {
		if err := pass.ExportFact(map[string]string{"from": pass.PkgPath}); err != nil {
			return err
		}
		for _, dep := range pass.FactPackages() {
			var mark map[string]string
			if ok, err := pass.ImportFact(dep, &mark); err != nil {
				return err
			} else if ok {
				pass.Reportf(pass.Files[0].Name.Pos(), "sees fact from %s", mark["from"])
			}
		}
		return nil
	},
}

// TestFactsRoundTrip drives run() through fabricated vet.cfg files the
// way cmd/go would: analyze dependency x (exports a fact into its vetx
// file), analyze dependent y with PackageVetx pointing at x's output
// (diagnostic proves the fact arrived), then relay through z, a package
// outside every configured scope, whose vetx must still carry both
// upstream facts.
func TestFactsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}

	xGo := write("x/x.go", "package x\n\nfunc X() {}\n")
	yGo := write("y/y.go", "package y\n\nfunc Y() {}\n")
	zGo := write("z/z.go", "package z\n\nfunc Z() {}\n")
	// x and y are in scope; z is not, so it must relay facts unanalyzed.
	scopes := &analysis.Config{Deterministic: []string{"x", "y"}}

	vetCfg := func(name string, cfg Config) string {
		t.Helper()
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return write(name, string(data))
	}

	xVetx := filepath.Join(dir, "x.vetx")
	yVetx := filepath.Join(dir, "y.vetx")
	zVetx := filepath.Join(dir, "z.vetx")
	suite := []*analysis.Analyzer{roundtrip}

	// Leaf package: nothing imported, fact exported.
	xCfg := vetCfg("x.cfg", Config{
		ID: "x", ImportPath: "x", Dir: dir, GoVersion: "go1.24",
		GoFiles: []string{xGo}, VetxOutput: xVetx,
	})
	if code := run(xCfg, scopes, suite); code != 0 {
		t.Fatalf("run(x) = %d, want 0 (no dependency facts to report)", code)
	}
	xFacts := decodeVetx(t, xVetx)
	if _, ok := xFacts["x"]["roundtrip"]; !ok {
		t.Fatalf("x.vetx lacks x's roundtrip fact: %v", xFacts)
	}

	// Dependent package: x's vetx arrives via PackageVetx, the imported
	// fact produces a diagnostic, and y re-exports x's fact with its own.
	yCfg := vetCfg("y.cfg", Config{
		ID: "y", ImportPath: "y", Dir: dir, GoVersion: "go1.24",
		GoFiles: []string{yGo}, VetxOutput: yVetx,
		PackageVetx: map[string]string{"x": xVetx},
	})
	if code := run(yCfg, scopes, suite); code != 2 {
		t.Fatalf("run(y) = %d, want 2 (the fact from x must surface as a finding)", code)
	}
	yFacts := decodeVetx(t, yVetx)
	for _, pkg := range []string{"x", "y"} {
		if _, ok := yFacts[pkg]["roundtrip"]; !ok {
			t.Errorf("y.vetx lacks %s's roundtrip fact (transitive re-export broken): %v", pkg, yFacts)
		}
	}

	// Out-of-scope package: not analyzed (exit 0, no diagnostics), but
	// its vetx still relays both upstream facts so a scope gap never
	// severs the chain for packages beyond it.
	zCfg := vetCfg("z.cfg", Config{
		ID: "z", ImportPath: "z", Dir: dir, GoVersion: "go1.24",
		GoFiles: []string{zGo}, VetxOutput: zVetx,
		PackageVetx: map[string]string{"y": yVetx},
	})
	if code := run(zCfg, scopes, suite); code != 0 {
		t.Fatalf("run(z) = %d, want 0 (out of scope, never analyzed)", code)
	}
	zFacts := decodeVetx(t, zVetx)
	for _, pkg := range []string{"x", "y"} {
		if _, ok := zFacts[pkg]["roundtrip"]; !ok {
			t.Errorf("z.vetx lacks %s's roundtrip fact (out-of-scope relay broken): %v", pkg, zFacts)
		}
	}
	if _, ok := zFacts["z"]; ok {
		t.Error("z.vetx contains facts for z itself, but z is out of scope and must not be analyzed")
	}
}

func decodeVetx(t *testing.T, path string) map[string]analysis.PackageFacts {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := analysis.DecodeFacts(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
