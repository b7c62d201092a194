package maporder_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/maporder"
)

func TestMaporder(t *testing.T) {
	cfg := &analysis.Config{Deterministic: []string{"a"}}
	analysistest.Run(t, "testdata", maporder.Analyzer, cfg, "a")
}
