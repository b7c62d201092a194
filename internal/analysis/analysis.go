// Package analysis is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary, just large enough to host
// detlint's determinism analyzers. The build environment pins the repo
// to the standard library, so rather than vendoring x/tools the package
// defines the same shapes — Analyzer, Pass, Diagnostic — over go/ast and
// go/types, plus the //detlint:allow escape-hatch filtering every driver
// shares. Two tests run analyzers, both through Run: analysistest runs
// one over golden fixtures, and TestTreeIsClean runs the suite over the
// module as part of `go test ./...`. Either way every package is fully
// type-checked, and the packages are walked dependency-first in one
// process over one FileSet.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //detlint:allow directives. It must be a single lower-case word.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// A Package is one parsed, fully type-checked package ready for
// analysis.
type Package struct {
	Files []*ast.File
	// Path is the import path used for config scope matching.
	Path  string
	Types *types.Package
	Info  *types.Info
}

// A Pass connects one analyzer run to one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info
	Config    *Config

	diags  *[]Diagnostic
	shared map[*Analyzer]any
}

// A Diagnostic is one finding, attributed to the analyzer that made it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Shared returns the one value the analyzer keeps for the whole run,
// made by mk when the first package asks for it. Packages are analyzed
// dependency-first, so what a pass stores there while analyzing a
// package is in view when it analyzes every package that imports it.
func (p *Pass) Shared(mk func() any) any {
	v, ok := p.shared[p.Analyzer]
	if !ok {
		v = mk()
		p.shared[p.Analyzer] = v
	}
	return v
}

// IsTestFile reports whether the file's name marks it as a _test.go
// file. The determinism invariants bind the shipping simulation path;
// tests legitimately use wall-clock timeouts, goroutines and seeded
// throwaway RNGs, so every detlint analyzer skips test files.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// Run applies the analyzers to the packages, in the order given, which
// must be dependency-first; every package's files are parsed into fset.
// Each analyzer keeps one value across the run (Pass.Shared). Findings
// are filtered through the //detlint:allow directives in the source, the
// directives themselves are validated (a directive must carry a reason,
// and must name a registered analyzer), and the surviving diagnostics
// are returned ordered by position.
func Run(fset *token.FileSet, cfg *Config, analyzers []*Analyzer, pkgs ...*Package) ([]Diagnostic, error) {
	shared := make(map[*Analyzer]any)
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows := allowDirectives(fset, pkg.Files)
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				PkgPath:   pkg.Path,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Config:    cfg,
				diags:     &diags,
				shared:    shared,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzer %s: %w", pkg.Path, a.Name, err)
			}
			out = append(out, filter(fset, allows, a.Name, diags)...)
		}
		out = append(out, validate(allows, analyzers)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// registry holds every analyzer name the detlint suite has ever
// registered in this process. Allow-directive validation checks names
// against it rather than against the currently running subset: a
// fixture (or a future partial invocation) that runs one pass must not
// flag a directive naming another legitimate pass as a typo.
var registry = map[string]bool{}

// Register records a's name as a known analyzer. Pass packages call it
// from init, so importing a pass anywhere makes its directives
// validate.
func Register(a *Analyzer) *Analyzer {
	registry[a.Name] = true
	return a
}

// PkgFuncOf resolves a package-qualified selector (time.Now,
// rand.Intn, fmt.Errorf) to its package import path and member name.
// It returns ok=false for anything else — method calls, locals, dot
// imports.
func PkgFuncOf(info *types.Info, e ast.Expr) (pkgPath, name string, ok bool) {
	sel, okSel := e.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	x, okIdent := sel.X.(*ast.Ident)
	if !okIdent {
		return "", "", false
	}
	pn, okPkg := info.Uses[x].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// CalleeOf is PkgFuncOf applied to a call's function expression.
func CalleeOf(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	return PkgFuncOf(info, call.Fun)
}

// BuiltinNameOf returns the name of the builtin a call invokes
// (append, delete, make, …), or "" if the callee is not a builtin.
func BuiltinNameOf(info *types.Info, fun ast.Expr) string {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isB := info.Uses[id].(*types.Builtin); !isB {
		return ""
	}
	return id.Name
}

// IsErrorType reports whether t is the error interface or a type
// implementing it.
func IsErrorType(t types.Type) bool {
	return types.Implements(t, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}
