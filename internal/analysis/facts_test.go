package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// roundtrip skips packages outside every scope, as TestTreeIsClean
// does. In scope, it exports a marker fact and reports one diagnostic
// per fact an earlier package exported, so the fixtures' wants show
// which facts crossed which package boundaries.
var roundtrip = &analysis.Analyzer{
	Name: "roundtrip",
	Doc:  "export a marker fact and report every earlier package's fact seen",
	Run: func(pass *analysis.Pass) error {
		if !pass.Config.InScope(pass.PkgPath) {
			return nil
		}
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

// TestFactsRoundTrip threads one store through x → z → y, dependency
// first. x is in scope and exports a fact. z imports x but is outside
// every scope: it is not analyzed, so it reports nothing and exports
// nothing. y imports z and must still see x's fact, and only x's.
func TestFactsRoundTrip(t *testing.T) {
	cfg := &analysis.Config{Deterministic: []string{"x", "y"}}
	analysistest.Run(t, "testdata", roundtrip, cfg, "x", "z", "y")
}
