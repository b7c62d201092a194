package lockorder

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestLockOrder(t *testing.T) {
	cfg := &analysis.Config{LockScope: []string{"l"}}
	analysistest.Run(t, "testdata", Analyzer, cfg, "l")
}

// TestCrossPackage: kern holds MuY across a call into dep, and only
// dep's summary of the callee, kept for the run, shows MuX taken there.
func TestCrossPackage(t *testing.T) {
	cfg := &analysis.Config{LockScope: []string{"dep", "kern"}}
	analysistest.Run(t, "testdata", Analyzer, cfg, "dep", "kern")
}
