// Package nodeterm_test keeps the clock question's test under the name
// it had before the nodeterm pass was folded into entropy.
package nodeterm_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/entropy"
)

func TestNodeterm(t *testing.T) {
	cfg := &analysis.Config{Deterministic: []string{"clock"}}
	analysistest.Run(t, "../entropy/testdata", entropy.Analyzer, cfg, "clock", "b")
}
