package main

import (
	"strings"
	"testing"
)

// TestFarmExampleBitIdentical runs the example: run fails if the
// preempted and migrated simulation's solution differs from the
// undisturbed run by a bit, and the narration must show that the
// preemption and the migration both happened.
func TestFarmExampleBitIdentical(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	const want = "the simulation survived 1 preemption(s) and 1 mid-run migration(s)\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("example output lacks %q:\n%s", want, b.String())
	}
}
