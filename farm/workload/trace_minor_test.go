package workload_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/farm"
	"repro/farm/workload"
)

// malleableSpec is a lone long-running job on an otherwise idle pool —
// the shape the supply/demand policy reliably grows.
func malleableSpec() *workload.Spec {
	return &workload.Spec{
		Name:    "malleable",
		Horizon: 10 * time.Minute,
		Cohorts: []workload.Cohort{{
			Name:     "solo",
			Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: time.Minute},
			Jobs: workload.JobDist{
				Shapes:  []workload.ShapeChoice{{Method: "lb2d", JX: 2, JY: 2}},
				SideMin: 20,
				Steps:   workload.StepsDist{Median: 20000},
			},
			MaxJobs: 1,
		}},
	}
}

// TestTraceAutoscaledRoundTrip: a run recorded with an autoscaler plan
// is written at v1.1, carries resize events, survives the file round
// trip, and — the regression pin — Verify re-runs it byte-identically
// with a fresh engine compiled from the recorded plan.
func TestTraceAutoscaledRoundTrip(t *testing.T) {
	cfg := workload.RunConfig{
		Seed: 11, Policy: farm.FIFO, Backfill: farm.BackfillEASY,
		Autoscale: &workload.AutoscalePlan{Every: 15 * time.Second, Confirm: 2, Cooldown: time.Minute},
	}
	tr, sum, err := workload.Record(malleableSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Minor != workload.TraceMinor {
		t.Errorf("autoscaled trace minor = %d, want %d", tr.Minor, workload.TraceMinor)
	}
	if sum.Resizes == 0 {
		t.Error("autoscaled run recorded no resizes; the scenario does not exercise v1.1")
	}
	resized := false
	for _, l := range tr.Events {
		if strings.Contains(l, " resized ") || strings.Contains(l, " autoscale ") {
			resized = true
			break
		}
	}
	if !resized {
		t.Error("no resize/autoscale event lines in the recorded stream")
	}

	path := filepath.Join(t.TempDir(), "auto.trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Minor != workload.TraceMinor || loaded.Autoscale == nil ||
		loaded.Autoscale.Every != cfg.Autoscale.Every {
		t.Errorf("round trip lost v1.1 header: minor=%d autoscale=%+v", loaded.Minor, loaded.Autoscale)
	}
	if err := loaded.Verify(); err != nil {
		t.Errorf("autoscaled verify: %v", err)
	}
}

// TestTraceMinorRejections: a plain run still writes minor 0; v1.0
// traces carrying resize material and traces from newer minors are
// rejected with ErrBadTrace instead of silently diverging.
func TestTraceMinorRejections(t *testing.T) {
	plain, _, err := workload.Record(testSpec(), workload.RunConfig{Seed: 3, Policy: farm.FIFO, Backfill: farm.BackfillEASY})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Minor != 0 {
		t.Errorf("plain trace minor = %d, want 0 (pinned v1 output)", plain.Minor)
	}

	auto, _, err := workload.Record(malleableSpec(), workload.RunConfig{
		Seed: 11, Policy: farm.FIFO, Backfill: farm.BackfillEASY,
		Autoscale: &workload.AutoscalePlan{Every: 15 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}

	// A trace claiming the original v1 schema but containing resize
	// events was mislabeled or hand-edited.
	downgraded := *auto
	downgraded.Minor = 0
	downgraded.Autoscale = nil
	if err := downgraded.Verify(); !errors.Is(err, workload.ErrBadTrace) {
		t.Errorf("v1.0 trace with resize events: %v, want ErrBadTrace", err)
	}
	// Same mislabeling with only the plan present.
	headerOnly := *plain
	headerOnly.Autoscale = &workload.AutoscalePlan{Every: time.Minute}
	if err := headerOnly.Verify(); !errors.Is(err, workload.ErrBadTrace) {
		t.Errorf("v1.0 trace with autoscale plan: %v, want ErrBadTrace", err)
	}
	// A newer writer's minor is beyond this build.
	future := *auto
	future.Minor = workload.TraceMinor + 1
	if err := future.Verify(); !errors.Is(err, workload.ErrBadTrace) {
		t.Errorf("future minor: %v, want ErrBadTrace", err)
	}

	// An invalid recorded plan is refused at build time, not replayed.
	if _, _, err := workload.Record(testSpec(), workload.RunConfig{
		Policy: farm.FIFO, Backfill: farm.BackfillEASY,
		Autoscale: &workload.AutoscalePlan{Every: 0},
	}); !errors.Is(err, farm.ErrInvalidSpec) {
		t.Errorf("zero-tick plan: %v, want ErrInvalidSpec", err)
	}
}

// TestTraceMinorReadsEventKind: a plain run whose job IDs contain the
// words " resized " and " autoscale " is still plain v1 — the minor
// follows the events' kind, not words inside their job IDs — and a
// v1.0 trace holding such IDs verifies instead of being rejected as
// corrupt.
func TestTraceMinorReadsEventKind(t *testing.T) {
	spec := malleableSpec()
	spec.Cohorts[0].Name = "was resized by autoscale here"
	tr, _, err := workload.Record(spec, workload.RunConfig{Seed: 11, Policy: farm.FIFO, Backfill: farm.BackfillEASY})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(tr.Events, "\n"), " resized by autoscale ") {
		t.Fatal("no event line carries the job ID; the test would be vacuous")
	}
	if tr.Minor != 0 {
		t.Errorf("plain trace with resize words in its job IDs: minor = %d, want 0", tr.Minor)
	}
	plain := *tr
	plain.Minor = 0
	if err := plain.Verify(); err != nil {
		t.Errorf("v1.0 trace with resize words in its job IDs: %v", err)
	}
}
