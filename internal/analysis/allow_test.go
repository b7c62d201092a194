package analysis_test

import (
	"go/ast"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"

	// Registers entropy and maporder so a directive naming one — a real
	// pass that is not part of this invocation — validates without
	// being a typo, while the names entropy replaced do not.
	_ "repro/internal/analysis/passes/entropy"
	_ "repro/internal/analysis/passes/maporder"
)

// allowtest reports every call to boom(); it exists purely to give the
// allow-directive fixture something to suppress.
var allowtest = &analysis.Analyzer{
	Name: "allowtest",
	Doc:  "report calls to boom() so testdata/src/allow can exercise directive matching",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "boom" {
						pass.Reportf(call.Pos(), "boom called")
					}
				}
				return true
			})
		}
		return nil
	},
}

func TestAllowDirectives(t *testing.T) {
	analysistest.Run(t, "testdata", allowtest, &analysis.Config{}, "allow")
}
