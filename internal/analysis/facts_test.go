package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// roundtrip skips packages outside every scope, as TestTreeIsClean
// does. In scope, it reports one diagnostic per package an earlier one
// stored in its shared value, then stores its own, so the fixtures'
// wants show what crossed which package boundaries.
var roundtrip = &analysis.Analyzer{
	Name: "roundtrip",
	Doc:  "store each in-scope package in the shared value and report every earlier one seen",
	Run: func(pass *analysis.Pass) error {
		if !pass.Config.InScope(pass.PkgPath) {
			return nil
		}
		seen := pass.Shared(func() any { return new([]string) }).(*[]string)
		for _, from := range *seen {
			pass.Reportf(pass.Files[0].Name.Pos(), "sees fact from %s", from)
		}
		*seen = append(*seen, pass.PkgPath)
		return nil
	},
}

// TestFactsRoundTrip runs x → z → y, dependency first, in one run. x is
// in scope and stores itself in the shared value. z imports x but is
// outside every scope: it is not analyzed, so it reports nothing and
// stores nothing. y imports z and must still see what x stored, and
// only that.
func TestFactsRoundTrip(t *testing.T) {
	cfg := &analysis.Config{Deterministic: []string{"x", "y"}}
	analysistest.Run(t, "testdata", roundtrip, cfg, "x", "z", "y")
}
