// Package unitchecker implements the cmd/go vet tool protocol over the
// standard library, so a detlint binary runs as
//
//	go vet -vettool=$(which detlint) ./...
//
// The protocol, reverse-engineered from cmd/go/internal/work and
// mirrored from x/tools' unitchecker (which this repo cannot vendor):
//
//  1. cmd/go runs `tool -V=full` once and hashes the reply into its
//     build cache key, so analyses re-run when the tool changes;
//  2. cmd/go runs `tool -flags` and expects a JSON array of
//     {Name,Bool,Usage} describing the flags it may pass through;
//  3. per package, cmd/go writes a vet.cfg — file lists, the import
//     map, and export-data paths for every dependency — and invokes
//     `tool [flags] path/to/vet.cfg`. The tool type-checks from export
//     data, analyzes, writes the (for detlint, empty) facts file named
//     by VetxOutput, prints diagnostics, and exits 0 (clean), 2
//     (findings), or 1 (tool failure).
//
// Invoked any other way, Main re-execs itself under `go vet -vettool`
// so `detlint ./...` works directly during development.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Config mirrors the fields of cmd/go's vet.cfg that detlint consumes.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vet tool built from a suite of
// analyzers. It never returns.
func Main(analyzers ...*analysis.Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	version, printFlags, args, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}

	switch {
	case version != "":
		if version != "full" {
			log.Fatalf("unsupported flag value: -V=%s", version)
		}
		printVersion()
		os.Exit(0)
	case printFlags:
		printFlagsJSON()
		os.Exit(0)
	}

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(run(args[0], analysis.Default(), analyzers))
	}
	os.Exit(reexec(args))
}

// parseFlags is a hand-rolled parser for the two protocol flags: cmd/go
// passes them in -name=value form, and the -flags reply must enumerate
// exactly what we accept.
func parseFlags(argv []string) (version string, printFlags bool, args []string, err error) {
	for i, a := range argv {
		if a == "--" {
			return version, printFlags, append(args, argv[i+1:]...), nil
		}
		if !strings.HasPrefix(a, "-") {
			args = append(args, a)
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
		switch name {
		case "V":
			if !hasValue {
				value = "full"
			}
			version = value
		case "flags":
			printFlags = true
		default:
			return "", false, nil, fmt.Errorf("unknown flag -%s", name)
		}
	}
	return version, printFlags, args, nil
}

// printFlagsJSON answers `tool -flags` in the shape cmd/go's vet flag
// validation decodes.
func printFlagsJSON() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	flags := []jsonFlag{
		{"V", false, "print version and exit"},
		{"flags", true, "print flags in JSON and exit"},
	}
	data, err := json.Marshal(flags)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// printVersion replies to -V=full with the line format cmd/go's
// buildid probe parses: "<executable> version devel ... buildID=<hash>".
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel detlint buildID=%02x\n", exe, string(h.Sum(nil)))
}

// reexec turns a direct `detlint ./...` invocation into
// `go vet -vettool=<self> ./...`.
func reexec(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, args...)...)
	cmd.Stdout, cmd.Stderr, cmd.Stdin = os.Stdout, os.Stderr, os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		log.Fatal(err)
	}
	return 0
}

// run analyzes the package a vet.cfg describes against the given
// scopes and returns the process exit code.
func run(cfgFile string, scopes *analysis.Config, analyzers []*analysis.Analyzer) int {
	cfg, err := readConfig(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	// cmd/go caches the facts file and propagates it to dependents; an
	// empty one satisfies the protocol. Written first so every exit
	// path below leaves one, then overwritten with real facts when the
	// package is in scope.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			log.Fatal(err)
		}
	}

	// Gather the facts every dependency exported. Each vetx already
	// re-exports its own dependencies' facts, so the merge is complete
	// even if cmd/go's PackageVetx lists only direct deps.
	facts := analysis.NewFactStore()
	for _, path := range sortedKeys(cfg.PackageVetx) {
		data, err := os.ReadFile(cfg.PackageVetx[path])
		if err != nil {
			log.Fatalf("reading facts for %s: %v", path, err)
		}
		m, err := analysis.DecodeFacts(data)
		if err != nil {
			log.Fatalf("facts for %s: %v", path, err)
		}
		facts.AddImported(m)
	}
	writeVetx := func() {
		if cfg.VetxOutput == "" {
			return
		}
		data, err := facts.Encode(cfg.ImportPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
			log.Fatal(err)
		}
	}

	// Packages outside every scope — all of std, every dependency
	// beyond this module — are not analyzed, but their vetx must still
	// relay dependency facts so a scope gap never severs the chain.
	if !scopes.InScope(cfg.ImportPath) {
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	pkg, info, err := typeCheck(fset, files, cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Fatalf("typecheck %s: %v", cfg.ImportPath, err)
	}

	diags, err := analysis.RunFacts(&analysis.Package{
		Fset:  fset,
		Files: files,
		Path:  cfg.ImportPath,
		Types: pkg,
		Info:  info,
	}, scopes, analyzers, facts)
	if err != nil {
		log.Fatal(err)
	}
	writeVetx()
	return emit(diags, cfg, fset)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing vet config %s: %w", path, err)
	}
	return cfg, nil
}

// typeCheck loads the package from source plus per-dependency export
// data, exactly as the compiler saw it.
func typeCheck(fset *token.FileSet, files []*ast.File, cfg *Config) (*types.Package, *types.Info, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	base := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var errs []error
	tc := &types.Config{
		Importer: canonicalImporter{cfg.ImportMap, base},
		Sizes:    types.SizesFor(compiler, build.Default.GOARCH),
		Error:    func(err error) { errs = append(errs, err) },
	}
	if v, _, _ := strings.Cut(cfg.GoVersion, "-"); strings.HasPrefix(v, "go") {
		tc.GoVersion = v
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, _ := tc.Check(cfg.ImportPath, fset, files, info)
	if len(errs) > 0 {
		return nil, nil, errs[0]
	}
	return pkg, info, nil
}

// canonicalImporter maps source-level import paths through the vet
// config's ImportMap before hitting export data.
type canonicalImporter struct {
	importMap map[string]string
	base      types.Importer
}

func (ci canonicalImporter) Import(path string) (*types.Package, error) {
	if canonical, ok := ci.importMap[path]; ok {
		path = canonical
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ci.base.Import(path)
}

// emit prints diagnostics as file:line:col lines on stderr and returns
// the process exit code: 2 when anything was found, else 0.
func emit(diags []analysis.Diagnostic, cfg *Config, fset *token.FileSet) int {
	if cfg.VetxOnly {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
