package core

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package's tests when a goroutine outlives them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
