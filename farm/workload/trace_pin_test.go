package workload_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/farm/workload"
)

// TestCommittedTraces: every trace under testdata/ — a plain v1 run on
// the checkpoint grid (testSpec, seed 7, priority/EASY, every 6 min)
// and a v1.1 autoscaled run (malleableSpec, seed 11) — still reads,
// re-runs byte for byte under Verify, and re-encodes to the committed
// bytes, so a change to the scheduler, the event String forms or the
// trace schema shows up here against a recording made before it.
func TestCommittedTraces(t *testing.T) {
	for _, name := range []string{"plain-v1.trace.json", "autoscaled-v1.1.trace.json"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := workload.ReadTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Verify(); err != nil {
				t.Errorf("verify: %v", err)
			}
			out := filepath.Join(t.TempDir(), name)
			if err := tr.WriteFile(out); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("re-encoded trace differs from the committed %s (%d bytes, want %d)", name, len(got), len(want))
			}
		})
	}
}
