// Package analysis is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary, just large enough to host
// detlint's determinism analyzers. The build environment pins the repo
// to the standard library, so rather than vendoring x/tools the package
// defines the same shapes — Analyzer, Pass, Diagnostic — over go/ast and
// go/types, plus the //detlint:allow escape-hatch filtering every driver
// shares. Two tests run analyzers: analysistest runs one over golden
// fixtures, and TestTreeIsClean runs the suite over the module as part
// of `go test ./...`.
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

// A Package is one parsed, type-checked package ready for analysis.
// Type information may be partial (the analysistest harness checks
// against stub imports); analyzers must tolerate nil entries in Info.
type Package struct {
	Fset  *token.FileSet
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

	diags *[]Diagnostic
	facts *FactStore
	allow *allowIndex
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

// Allowed reports whether a well-formed //detlint:allow directive for
// this analyzer covers pos. Passes that export facts consult it at
// summary-build time: a site suppressed in its home package must not
// resurface as a cross-package finding at every caller.
func (p *Pass) Allowed(pos token.Pos) bool {
	if p.allow == nil {
		return false
	}
	posn := p.Fset.Position(pos)
	for _, d := range p.allow.byLine[posn.Filename][posn.Line] {
		if d.covers(p.Analyzer.Name) && d.reason != "" {
			return true
		}
	}
	return false
}

// IsTestFile reports whether the file's name marks it as a _test.go
// file. The determinism invariants bind the shipping simulation path;
// tests legitimately use wall-clock timeouts, goroutines and seeded
// throwaway RNGs, so every detlint analyzer skips test files.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// RunFacts applies the analyzers to the package, filters the findings
// through the //detlint:allow directives in the source, validates those
// directives (a directive must carry a reason, and must name a
// registered analyzer), and returns the surviving diagnostics ordered
// by position. Analyzers see the facts the store's dependencies
// exported and their own exports land in it.
func RunFacts(pkg *Package, cfg *Config, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	idx := buildAllowIndex(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			PkgPath:   pkg.Path,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Config:    cfg,
			diags:     &diags,
			facts:     facts,
			allow:     idx,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		out = append(out, idx.filter(pkg.Fset, a.Name, diags)...)
	}
	out = append(out, idx.validate(analyzers)...)
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
// imports. Resolution needs only the package-name binding, which the
// type checker records even when the imported package's contents are
// unavailable, so it works under analysistest's stub imports too.
func PkgFuncOf(info *types.Info, e ast.Expr) (pkgPath, name string, ok bool) {
	sel, okSel := e.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	x, okIdent := sel.X.(*ast.Ident)
	if !okIdent || info == nil {
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
// (append, delete, make, …), or "" if the callee is not a builtin. An
// unresolved bare identifier with a builtin's name is treated as the
// builtin, so the classification degrades safely under partial type
// information.
func BuiltinNameOf(info *types.Info, fun ast.Expr) string {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if info != nil {
		if obj := info.Uses[id]; obj != nil {
			if _, isB := obj.(*types.Builtin); isB {
				return id.Name
			}
			return "" // shadowed
		}
	}
	switch id.Name {
	case "append", "cap", "clear", "copy", "delete", "len", "make", "max", "min", "new", "panic", "print", "println":
		return id.Name
	}
	return ""
}

// IsErrorType reports whether t is the error interface or a type
// implementing it.
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.Invalid {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	if types.Identical(t, errType) {
		return true
	}
	iface, _ := errType.Underlying().(*types.Interface)
	if iface == nil {
		return false
	}
	return types.Implements(t, iface)
}
