package entropy_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/entropy"
)

// TestEntropy checks the pass's one scope: outside it nothing fires,
// and under the real analysis.Default() a go statement in core — which
// the old goroutine scope left out — does. Each question's own fixture
// runs as a subtest under the name of the test of the pass entropy
// absorbed it from: TestNodeterm (clock), TestStrayrng (rng) and
// TestGoentropy (gostmt).
func TestEntropy(t *testing.T) {
	cfg := &analysis.Config{Deterministic: []string{"clock", "rng", "gostmt"}}
	analysistest.Run(t, "testdata", entropy.Analyzer, cfg, "b")
	analysistest.Run(t, "testdata", entropy.Analyzer, analysis.Default(), "repro/internal/core")

	t.Run("TestNodeterm", func(t *testing.T) {
		cfg := &analysis.Config{Deterministic: []string{"clock"}}
		analysistest.Run(t, "testdata", entropy.Analyzer, cfg, "clock", "b")
	})
	t.Run("TestStrayrng", func(t *testing.T) {
		cfg := &analysis.Config{Deterministic: []string{"rng"}}
		analysistest.Run(t, "testdata", entropy.Analyzer, cfg, "rng")
	})
	t.Run("TestGoentropy", func(t *testing.T) {
		cfg := &analysis.Config{Deterministic: []string{"gostmt"}}
		analysistest.Run(t, "testdata", entropy.Analyzer, cfg, "gostmt")
	})
}
