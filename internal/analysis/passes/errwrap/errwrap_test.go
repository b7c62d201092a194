package errwrap_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/errwrap"
)

func TestErrwrap(t *testing.T) {
	cfg := &analysis.Config{ErrorSurface: []string{"a"}}
	analysistest.Run(t, "testdata", errwrap.Analyzer, cfg, "a")
}
