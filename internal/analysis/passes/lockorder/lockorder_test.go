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

// TestCrossPackage: dep adds the MuX→MuY order edge to the run's graph;
// kern inverts it by holding MuY across a call into dep.
func TestCrossPackage(t *testing.T) {
	cfg := &analysis.Config{LockScope: []string{"dep", "kern"}}
	analysistest.Run(t, "testdata", Analyzer, cfg, "dep", "kern")
}
