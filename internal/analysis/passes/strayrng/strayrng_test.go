// Package strayrng_test keeps the stray-generator question's test under
// the name it had before the strayrng pass was folded into entropy.
package strayrng_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/entropy"
)

func TestStrayrng(t *testing.T) {
	cfg := &analysis.Config{Deterministic: []string{"rng"}}
	analysistest.Run(t, "../entropy/testdata", entropy.Analyzer, cfg, "rng")
}
