// Package goentropy_test keeps the go-statement question's test under
// the name it had before the goentropy pass was folded into entropy.
package goentropy_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/entropy"
)

func TestGoentropy(t *testing.T) {
	cfg := &analysis.Config{Deterministic: []string{"gostmt"}}
	analysistest.Run(t, "../entropy/testdata", entropy.Analyzer, cfg, "gostmt")
}
