// Package maporder flags every range over a map in a deterministic
// package — the classic silent killer of byte-identical traces.
//
// Go randomizes map iteration order on purpose, so a map range whose
// body appends, calls out, sums floats, builds a string or returns its
// first match differs between two runs of the same binary with the
// same inputs. Whatever the body, the pass asks the loop to visit the
// keys in order, as the tree's loops do:
//
//	for _, k := range slices.Sorted(maps.Keys(m)) {
//
// A range over maps.All, maps.Keys or maps.Values is a map range too.
// A loop whose order truly cannot be observed (it only deletes from
// the map it ranges over) says so with a //detlint:allow directive.
package maporder

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = analysis.Register(&analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag every range over a map, or over maps.All, maps.Keys or maps.Values, unless its keys are sorted first",
	Run:  run,
})

func run(pass *analysis.Pass) error {
	if !analysis.Match(pass.Config.Deterministic, pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok && isMapRange(pass, rs.X) {
				pass.Reportf(rs.For, "range over a map: iteration order is nondeterministic; range over slices.Sorted(maps.Keys(m))")
			}
			return true
		})
	}
	return nil
}

// isMapRange reports whether x is a map or a call of maps.All,
// maps.Keys or maps.Values.
func isMapRange(pass *analysis.Pass, x ast.Expr) bool {
	if _, ok := pass.TypesInfo.TypeOf(x).Underlying().(*types.Map); ok {
		return true
	}
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	path, name, ok := analysis.CalleeOf(pass.TypesInfo, call)
	return ok && path == "maps" && (name == "All" || name == "Keys" || name == "Values")
}
