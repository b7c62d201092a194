package metrics

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	jobs := []Job{
		{ID: "b", Ranks: 10, Submit: 0, FirstStart: 0, Done: 100 * time.Second,
			Served: 100 * time.Second, Weighted: true, Imbalance: 1.05},
		{ID: "a", Ranks: 5, Submit: 0, FirstStart: 40 * time.Second, Done: 140 * time.Second,
			Served: 100 * time.Second, Preemptions: 2, Imbalance: 1.19},
		{ID: "c", Ranks: 1, Submit: 20 * time.Second, FirstStart: 60 * time.Second,
			Done: 200 * time.Second, Served: 140 * time.Second, Backfilled: true, Imbalance: 1.0},
	}
	s := Summarize(jobs, 20)

	if got := []string{s.Jobs[0].ID, s.Jobs[1].ID, s.Jobs[2].ID}; got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("jobs not sorted by (submit, id): %v", got)
	}
	if s.Makespan != 200*time.Second {
		t.Errorf("makespan = %v, want 200s", s.Makespan)
	}
	// Waits: 40s, 0, 40s -> mean 26.666s, max 40s.
	if want := time.Duration(80*float64(time.Second)) / 3; s.MeanWait != want {
		t.Errorf("mean wait = %v, want %v", s.MeanWait, want)
	}
	if s.MaxWait != 40*time.Second {
		t.Errorf("max wait = %v, want 40s", s.MaxWait)
	}
	// Busy host-seconds: 10*100 + 5*100 + 1*140 = 1640 over 20*200.
	if want := 1640.0 / 4000.0; s.Utilization != want {
		t.Errorf("utilization = %v, want %v", s.Utilization, want)
	}
	if s.Preemptions != 2 || s.Backfills != 1 {
		t.Errorf("preemptions %d backfills %d, want 2 and 1", s.Preemptions, s.Backfills)
	}
	if s.Weighted != 1 {
		t.Errorf("weighted jobs = %d, want 1", s.Weighted)
	}
	if s.MaxImbalance != 1.19 {
		t.Errorf("max imbalance = %v, want 1.19", s.MaxImbalance)
	}
	if want := (1.05 + 1.19 + 1.0) / 3; s.MeanImbalance != want {
		t.Errorf("mean imbalance = %v, want %v", s.MeanImbalance, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, 25)
	if s.Makespan != 0 || s.Utilization != 0 || len(s.Jobs) != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]Job{
		{ID: "j1", Ranks: 4, Priority: 9, Done: time.Minute, Served: time.Minute,
			Preemptions: 1, Backfilled: true},
	}, 25)
	out := s.String()
	for _, want := range []string{"j1", "makespan", "mean wait", "utilization", "preemptions", "backfills", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary table missing %q:\n%s", want, out)
		}
	}
}

// summarizeOrderOracle is Summarize's job order as it was written with a
// reflection sort, frozen.
func summarizeOrderOracle(jobs []Job) []Job {
	out := append([]Job(nil), jobs...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Submit != out[j].Submit {
			return out[i].Submit < out[j].Submit
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TestSummarizeOrderMatchesSortOracle: jobs with equal submit times, and
// now and then an equal ID too, come out in the frozen sort's order.
func TestSummarizeOrderMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for range 200 {
		jobs := make([]Job, 1+r.Intn(40))
		for i := range jobs {
			jobs[i] = Job{ID: fmt.Sprintf("j%d", r.Intn(8)), Ranks: i + 1,
				Submit: time.Duration(r.Intn(4)) * time.Minute, Done: time.Hour}
		}
		got, want := Summarize(jobs, 25).Jobs, summarizeOrderOracle(jobs)
		if !slices.Equal(got, want) {
			t.Fatalf("Summarize ordered %v, the frozen sort %v", got, want)
		}
	}
}
