// Package errwrap keeps the public farm error surface checkable with
// errors.Is/As.
//
// The farm API declares its failure modes as sentinels (ErrClosed,
// ErrNoCapacity, ErrInvalidSpec, ErrNotRunning, …) and documents that
// callers dispatch on them with errors.Is. That contract rots in three
// quiet ways, each flagged here:
//
//   - an error formatted into fmt.Errorf with %v or %s instead of %w:
//     the text survives but the chain is cut, so errors.Is stops
//     matching;
//   - an ad-hoc errors.New inside a function body: an anonymous
//     failure mode no caller can test for — declare a package-level
//     sentinel or wrap an existing one;
//   - err == / != comparison against a non-nil error: breaks as soon
//     as anyone wraps the sentinel — use errors.Is.
package errwrap

import (
	"go/ast"
	"go/constant"
	"go/token"

	"repro/internal/analysis"
)

var Analyzer = analysis.Register(&analysis.Analyzer{
	Name: "errwrap",
	Doc: "in the public farm API, require %w wrapping in fmt.Errorf, package-level error sentinels, " +
		"and errors.Is instead of == on errors",
	Run: run,
})

func run(pass *analysis.Pass) error {
	if !analysis.Match(pass.Config.ErrorSurface, pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkCall(pass, n)
				case *ast.BinaryExpr:
					checkCompare(pass, n)
				}
				return true
			})
		}
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	path, name, ok := analysis.CalleeOf(pass.TypesInfo, call)
	if !ok {
		return
	}
	switch {
	case path == "errors" && name == "New":
		pass.Reportf(call.Pos(),
			"errors.New inside a function creates an error no caller can errors.Is against; declare a package-level Err sentinel or wrap one with %%w")
	case path == "fmt" && name == "Errorf":
		checkErrorf(pass, call)
	}
}

// checkErrorf lines the format verbs up with the arguments and flags
// error-typed arguments rendered by anything but %w.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	vs := verbs(constant.StringVal(tv.Value))
	for i, arg := range call.Args[1:] {
		if i >= len(vs) {
			return // malformed format; govet's printf check owns that
		}
		if vs[i] == 'w' {
			continue
		}
		atv, ok := pass.TypesInfo.Types[arg]
		if !ok || !analysis.IsErrorType(atv.Type) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"error argument formatted with %%%c; use %%w so errors.Is/As still see the sentinel chain", vs[i])
	}
}

// verbs returns fmt verbs in argument order; '*' width and precision
// arguments appear as '*' entries.
func verbs(format string) []rune {
	var out []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) {
			c := format[i]
			switch {
			case c == '%':
				// literal %%
			case c == '*':
				out = append(out, '*')
				i++
				continue
			case c == '+' || c == '-' || c == '#' || c == ' ' || c == '0' || c == '.' || ('0' <= c && c <= '9'):
				i++
				continue
			case c == '[':
				// explicit argument indexes defeat positional
				// matching; bail out for this format.
				return nil
			default:
				out = append(out, rune(c))
			}
			break
		}
	}
	return out
}

func checkCompare(pass *analysis.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	x, okx := pass.TypesInfo.Types[be.X]
	y, oky := pass.TypesInfo.Types[be.Y]
	if !okx || !oky || x.IsNil() || y.IsNil() {
		return
	}
	if analysis.IsErrorType(x.Type) && analysis.IsErrorType(y.Type) {
		pass.Reportf(be.OpPos,
			"errors compared with %s break once a sentinel is wrapped; use errors.Is", be.Op)
	}
}
