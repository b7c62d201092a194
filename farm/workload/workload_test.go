package workload_test

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/farm"
	"repro/farm/workload"
)

// testSpec is a small two-cohort spec with a scripted reclaim storm:
// big enough to exercise placement, backfill and reclaim migration,
// small enough to run in well under a second.
func testSpec() *workload.Spec {
	return &workload.Spec{
		Name:    "unit",
		Horizon: 30 * time.Minute,
		Cohorts: []workload.Cohort{
			{
				Name:     "eng",
				Weight:   2,
				Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: 4 * time.Minute},
				Jobs: workload.JobDist{
					Shapes: []workload.ShapeChoice{
						{Method: "lb2d", JX: 2, JY: 2, Weight: 3},
						{Method: "fd2d", JX: 4, JY: 2, Weight: 1},
					},
					SideMin: 20, SideMax: 40,
					Steps: workload.StepsDist{Median: 4000, Sigma: 0.4},
				},
				Priorities: []workload.IntChoice{{Value: 0, Weight: 3}, {Value: 5, Weight: 1}},
				MaxJobs:    5,
			},
			{
				Name:     "sci",
				Arrivals: workload.Arrivals{Process: workload.Gamma, MeanGap: 6 * time.Minute, Shape: 2, Start: 2 * time.Minute},
				Jobs: workload.JobDist{
					Shapes:  []workload.ShapeChoice{{Method: "lb3d", JX: 2, JY: 2, JZ: 2}},
					SideMin: 10,
					Steps:   workload.StepsDist{Median: 2000, Sigma: 0.3},
				},
				MaxJobs: 3,
			},
		},
		Scenario: &workload.Scenario{
			Every: time.Minute,
			Events: []workload.Event{
				{Kind: workload.ReclaimStorm, At: 8 * time.Minute, Until: 18 * time.Minute,
					Every: 5 * time.Minute, Hosts: 2, Dwell: 4 * time.Minute},
				{Kind: workload.HostChurn, At: 5 * time.Minute, Hosts: 3},
			},
		},
	}
}

func jobsJSON(t *testing.T, jobs []farm.JobSpec) string {
	t.Helper()
	b, err := json.Marshal(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGenerateDeterministic is the regression pin on generation: the
// same (spec, seed) pair yields a byte-identical job list, and
// different seeds yield different ones.
func TestGenerateDeterministic(t *testing.T) {
	a, err := workload.Generate(testSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Generate(testSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("spec generated no jobs")
	}
	if ja, jb := jobsJSON(t, a), jobsJSON(t, b); ja != jb {
		t.Errorf("same (spec, seed) produced different job lists:\n%s\n%s", ja, jb)
	}
	c, err := workload.Generate(testSpec(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if jobsJSON(t, a) == jobsJSON(t, c) {
		t.Error("different seeds produced identical job lists")
	}

	seen := make(map[string]bool)
	for i, sp := range a {
		if seen[sp.ID] {
			t.Errorf("duplicate job ID %s", sp.ID)
		}
		seen[sp.ID] = true
		if sp.Submit > testSpec().Horizon {
			t.Errorf("job %s submitted at %v, past the horizon", sp.ID, sp.Submit)
		}
		if i > 0 && sp.Submit < a[i-1].Submit {
			t.Errorf("job list not sorted at %d: %v after %v", i, sp.Submit, a[i-1].Submit)
		}
	}
}

// TestGenerateCohortIsolation: editing one cohort must not shift
// another cohort's draws — each cohort has its own derived substream.
func TestGenerateCohortIsolation(t *testing.T) {
	base, err := workload.Generate(testSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	edited := testSpec()
	edited.Cohorts[1].Arrivals.MeanGap = 3 * time.Minute // perturb sci only
	got, err := workload.Generate(edited, 7)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(jobs []farm.JobSpec, user string) []farm.JobSpec {
		var out []farm.JobSpec
		for _, sp := range jobs {
			if sp.User == user {
				out = append(out, sp)
			}
		}
		return out
	}
	if a, b := jobsJSON(t, filter(base, "eng")), jobsJSON(t, filter(got, "eng")); a != b {
		t.Errorf("editing cohort sci changed cohort eng's jobs:\n%s\n%s", a, b)
	}
}

// TestGenerateDiurnal: a diurnal rate curve shifts arrival mass into
// its high-rate buckets.
func TestGenerateDiurnal(t *testing.T) {
	spec := &workload.Spec{
		Name:    "diurnal",
		Horizon: 24 * time.Hour,
		Cohorts: []workload.Cohort{{
			Name: "d",
			Arrivals: workload.Arrivals{
				Process: workload.Poisson,
				MeanGap: 2 * time.Minute,
				Diurnal: []float64{4, 0.25},
				Day:     2 * time.Hour,
			},
			Jobs: workload.JobDist{
				Shapes:  []workload.ShapeChoice{{Method: "lb2d", JX: 2, JY: 1}},
				SideMin: 8,
				Steps:   workload.StepsDist{Median: 100},
			},
		}},
	}
	jobs, err := workload.Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	var busy, quiet int
	for _, sp := range jobs {
		if sp.Submit%(2*time.Hour) < time.Hour {
			busy++
		} else {
			quiet++
		}
	}
	if busy+quiet < 100 {
		t.Fatalf("only %d arrivals; spec too sparse to test", busy+quiet)
	}
	// Rates 4 vs 0.25 put 16x the mass in the busy half-day; even a
	// noisy draw clears 2x.
	if busy < 2*quiet {
		t.Errorf("diurnal curve ignored: %d arrivals in the rate-4 buckets, %d in the rate-0.25 buckets", busy, quiet)
	}
}

// TestSpecValidation: malformed specs are rejected with ErrInvalidSpec.
func TestSpecValidation(t *testing.T) {
	cases := map[string]func(*workload.Spec){
		"no name":        func(s *workload.Spec) { s.Name = "" },
		"no horizon":     func(s *workload.Spec) { s.Horizon = 0 },
		"no cohorts":     func(s *workload.Spec) { s.Cohorts = nil },
		"dup cohort":     func(s *workload.Spec) { s.Cohorts[1].Name = s.Cohorts[0].Name },
		"bad process":    func(s *workload.Spec) { s.Cohorts[0].Arrivals.Process = "bursty" },
		"no mean gap":    func(s *workload.Spec) { s.Cohorts[0].Arrivals.MeanGap = 0 },
		"bad diurnal":    func(s *workload.Spec) { s.Cohorts[0].Arrivals.Diurnal = []float64{1, 0} },
		"no shapes":      func(s *workload.Spec) { s.Cohorts[0].Jobs.Shapes = nil },
		"bad method":     func(s *workload.Spec) { s.Cohorts[0].Jobs.Shapes[0].Method = "lb4d" },
		"2D with JZ":     func(s *workload.Spec) { s.Cohorts[0].Jobs.Shapes[0].JZ = 1 },
		"no side":        func(s *workload.Spec) { s.Cohorts[0].Jobs.SideMin = 0 },
		"side range":     func(s *workload.Spec) { s.Cohorts[0].Jobs.SideMax = s.Cohorts[0].Jobs.SideMin - 1 },
		"no steps":       func(s *workload.Spec) { s.Cohorts[0].Jobs.Steps.Median = 0 },
		"negative sigma": func(s *workload.Spec) { s.Cohorts[0].Jobs.Steps.Sigma = -1 },

		"scenario tick":      func(s *workload.Spec) { s.Scenario.Every = 0 },
		"scenario kind":      func(s *workload.Spec) { s.Scenario.Events[0].Kind = "meteor" },
		"scenario off-grid":  func(s *workload.Spec) { s.Scenario.Events[0].At = 90 * time.Second; s.Scenario.Every = time.Minute },
		"scenario window":    func(s *workload.Spec) { s.Scenario.Events[0].Until = s.Scenario.Events[0].At - time.Minute },
		"scenario no period": func(s *workload.Spec) { s.Scenario.Events[0].Every = 0 },
		"scenario neg start": func(s *workload.Spec) { s.Scenario.Events[0].At = -time.Minute },
		"scenario neg dwell": func(s *workload.Spec) { s.Scenario.Events[0].Dwell = -time.Minute },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			spec := testSpec()
			mutate(spec)
			if _, err := workload.Generate(spec, 1); !errors.Is(err, farm.ErrInvalidSpec) {
				t.Errorf("got %v, want ErrInvalidSpec", err)
			}
		})
	}
}

// TestRecordVerifyRoundTrip records a run, round-trips the trace
// through a file, and verifies it: the re-run's event stream must be
// byte-identical. Recording twice must also produce identical traces —
// the event-stream half of the determinism pin.
func TestRecordVerifyRoundTrip(t *testing.T) {
	cfg := workload.RunConfig{Seed: 7, Policy: farm.Priority, Backfill: farm.BackfillEASY}
	tr, sum, err := workload.Record(testSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 || len(tr.Jobs) == 0 {
		t.Fatalf("empty trace: %d jobs, %d events", len(tr.Jobs), len(tr.Events))
	}
	if len(sum.Jobs) != len(tr.Jobs) {
		t.Errorf("summary has %d jobs, trace %d", len(sum.Jobs), len(tr.Jobs))
	}
	// The scripted storm must actually bite.
	if !strings.Contains(strings.Join(tr.Events, "\n"), "reclaim") {
		t.Error("reclaim-storm scenario produced no reclaim events")
	}

	tr2, _, err := workload.Record(testSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := strings.Join(tr.Events, "\n"), strings.Join(tr2.Events, "\n"); a != b {
		t.Error("recording the same (spec, seed) twice produced different event streams")
	}

	path := filepath.Join(t.TempDir(), "unit.trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(); err != nil {
		t.Errorf("verify after round-trip: %v", err)
	}
}

// TestVerifyCatchesDrift: a trace whose recorded stream no longer
// matches the configuration must fail Verify with ErrTraceDiverged.
func TestVerifyCatchesDrift(t *testing.T) {
	tr, _, err := workload.Record(testSpec(), workload.RunConfig{Seed: 7, Policy: farm.FIFO, Backfill: farm.BackfillEASY})
	if err != nil {
		t.Fatal(err)
	}
	tampered := *tr
	tampered.Events = append([]string(nil), tr.Events...)
	tampered.Events[len(tampered.Events)/2] = "t=1m0s job evil queued"
	if err := tampered.Verify(); !errors.Is(err, workload.ErrTraceDiverged) {
		t.Errorf("tampered event: got %v, want ErrTraceDiverged", err)
	}

	reseeded := *tr
	reseeded.Seed++
	if err := reseeded.Verify(); !errors.Is(err, workload.ErrTraceDiverged) {
		t.Errorf("tampered seed: got %v, want ErrTraceDiverged", err)
	}
}

// TestTraceVersionRejected: traces from the future (or another format)
// are rejected, not misparsed.
func TestTraceVersionRejected(t *testing.T) {
	tr, _, err := workload.Record(testSpec(), workload.RunConfig{Seed: 1, Policy: farm.FIFO, Backfill: farm.BackfillNone})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "future.trace.json")

	future := *tr
	future.Version = workload.TraceVersion + 1
	if err := future.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.ReadTrace(path); !errors.Is(err, workload.ErrBadTrace) {
		t.Errorf("future version: got %v, want ErrBadTrace", err)
	}
	if err := future.Verify(); !errors.Is(err, workload.ErrBadTrace) {
		t.Errorf("future version verify: got %v, want ErrBadTrace", err)
	}

	alien := *tr
	alien.Format = "not-a-farm-trace"
	if err := alien.Verify(); !errors.Is(err, workload.ErrBadTrace) {
		t.Errorf("alien format: got %v, want ErrBadTrace", err)
	}

	unknown := *tr
	unknown.Timer = "quantum"
	if err := unknown.Verify(); !errors.Is(err, workload.ErrBadTrace) {
		t.Errorf("unregistered timer: got %v, want ErrBadTrace", err)
	}
}

// TestVerifyAcrossRestore is the acceptance pin: a recorded trace is
// reproduced byte-identically even when the verifying run crashes
// mid-way and continues from its checkpoint — the doomed run's stream
// plus the restored run's stream equals the recording.
func TestVerifyAcrossRestore(t *testing.T) {
	const (
		ckptEvery = 6 * time.Minute
		crashAt   = 12 * time.Minute
	)
	spec := testSpec()
	cfg := workload.RunConfig{
		Seed: 7, Policy: farm.Priority, Backfill: farm.BackfillEASY,
		CheckpointEvery: ckptEvery, CheckpointDir: t.TempDir(),
	}
	tr, _, err := workload.Record(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(tr.Events, "\n"), "checkpoint") {
		t.Fatal("recorded run saved no checkpoints; the boundary test would be vacuous")
	}

	policy, err := farm.ParsePolicy(tr.Policy)
	if err != nil {
		t.Fatal(err)
	}
	backfill, err := farm.ParseBackfill(tr.Backfill)
	if err != nil {
		t.Fatal(err)
	}
	every, scenario, err := tr.Scenario.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pool := func() *farm.Cluster {
		c := farm.NewPaperCluster()
		c.Advance(30 * time.Minute)
		return c
	}

	// The doomed run: periodic checkpoints on the recorded grid, then at
	// crashAt a cancel of its Run, whose save stands in for the periodic
	// one its death preempts (same virtual time, same generation number).
	dir := t.TempDir()
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	doomed, err := farm.New(pool(),
		farm.WithPolicy(policy), farm.WithBackfill(backfill), farm.WithSeed(tr.Seed),
		farm.WithCheckpoint(dir, tr.CheckpointEvery, tr.CheckpointGap),
		farm.WithScenario(every, func(tt time.Duration, c *farm.Cluster) {
			scenario(tt, c)
			if tt >= crashAt {
				crash()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	subA := doomed.SubscribeBuffered(1 << 14)
	for _, sp := range tr.Jobs {
		if _, err := doomed.Submit(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	doomed.Drain()
	if _, err := doomed.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("doomed run: %v, want context.Canceled", err)
	}
	var got []string
	for ev := range subA.Events() {
		got = append(got, ev.String())
	}

	// The restored continuation re-attaches the same scenario and
	// checkpoint grid, as Restore requires for bit-identity.
	restored, err := farm.Restore(dir, farm.NewPaperCluster(), nil,
		farm.WithScenario(every, scenario),
		farm.WithCheckpoint(dir, tr.CheckpointEvery, tr.CheckpointGap))
	if err != nil {
		t.Fatal(err)
	}
	subB := restored.SubscribeBuffered(1 << 14)
	if _, err := restored.Run(nil); err != nil {
		t.Fatal(err)
	}
	for ev := range subB.Events() {
		got = append(got, ev.String())
	}

	want := strings.Join(tr.Events, "\n")
	if g := strings.Join(got, "\n"); g != want {
		t.Errorf("stitched crash+restore stream differs from the recorded trace:\nrecorded %d events, got %d", len(tr.Events), len(got))
	}
}

// TestGenerateOrderMatchesSortOracle: Generate's (Submit, ID) order is
// the frozen reflection sort's, on a stream whose nanosecond gaps make
// most submit times equal within and across cohorts. The list before the
// sort is cohort by cohort in spec order, each cohort's jobs in draw
// order, which the IDs' sequence numbers recover.
func TestGenerateOrderMatchesSortOracle(t *testing.T) {
	oracle := func(jobs []farm.JobSpec) {
		sort.SliceStable(jobs, func(i, j int) bool {
			if jobs[i].Submit != jobs[j].Submit {
				return jobs[i].Submit < jobs[j].Submit
			}
			return jobs[i].ID < jobs[j].ID
		})
	}
	cohort := func(name string) workload.Cohort {
		return workload.Cohort{Name: name,
			Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: 2},
			Jobs: workload.JobDist{Shapes: []workload.ShapeChoice{{Method: "lb2d", JX: 2, JY: 1}},
				SideMin: 8, Steps: workload.StepsDist{Median: 10}},
			MaxJobs: 40}
	}
	spec := &workload.Spec{Name: "ties", Horizon: time.Hour,
		Cohorts: []workload.Cohort{cohort("b"), cohort("a"), cohort("c")}}
	for seed := int64(1); seed <= 20; seed++ {
		got, err := workload.Generate(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		cohortOf := map[string]int{"b": 0, "a": 1, "c": 2}
		seq := func(j farm.JobSpec) int {
			n, err := strconv.Atoi(j.ID[strings.LastIndex(j.ID, "-")+1:])
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		drawn := slices.Clone(got)
		slices.SortFunc(drawn, func(x, y farm.JobSpec) int {
			return cmp.Or(cmp.Compare(cohortOf[x.User], cohortOf[y.User]), cmp.Compare(seq(x), seq(y)))
		})
		ties := 0
		for i := 1; i < len(drawn); i++ {
			if drawn[i].Submit == drawn[i-1].Submit {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("seed %d: no equal submit times; the oracle sees no tie", seed)
		}
		oracle(drawn)
		if !slices.Equal(got, drawn) {
			t.Fatalf("seed %d: Generate's order differs from the frozen sort's", seed)
		}
	}
}
