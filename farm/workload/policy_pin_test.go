package workload_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"repro/farm"
	"repro/farm/workload"
)

// pairSpec is a seeded stream for pinning every policy and backfill
// pair: two tenants of unequal weight, two priorities, wide and narrow
// jobs, and a reclaim storm, loaded so that the priority runs preempt
// and the backfilling runs backfill.
func pairSpec() *workload.Spec {
	return &workload.Spec{
		Name:    "pairs",
		Horizon: 3 * time.Hour,
		Cohorts: []workload.Cohort{
			{
				Name: "eng", Weight: 3,
				Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: time.Minute},
				Jobs: workload.JobDist{
					Shapes: []workload.ShapeChoice{
						{Method: "lb2d", JX: 4, JY: 3, Weight: 1},
						{Method: "lb2d", JX: 2, JY: 2, Weight: 2},
						{Method: "fd2d", JX: 3, JY: 2, Weight: 1},
					},
					SideMin: 20, SideMax: 40,
					Steps: workload.StepsDist{Median: 8000, Sigma: 0.5},
				},
				Priorities: []workload.IntChoice{{Value: 0, Weight: 3}, {Value: 5, Weight: 1}},
				MaxJobs:    30,
			},
			{
				Name: "sci", Weight: 1,
				Arrivals: workload.Arrivals{Process: workload.Gamma, MeanGap: 2 * time.Minute, Shape: 2, Start: time.Minute},
				Jobs: workload.JobDist{
					Shapes:  []workload.ShapeChoice{{Method: "lb3d", JX: 2, JY: 2, JZ: 2}, {Method: "fd2d", JX: 4, JY: 4}},
					SideMin: 12, SideMax: 20,
					Steps: workload.StepsDist{Median: 5000, Sigma: 0.4},
				},
				Priorities: []workload.IntChoice{{Value: 0, Weight: 1}, {Value: 5, Weight: 1}},
				MaxJobs:    20,
			},
		},
		Scenario: &workload.Scenario{
			Every: time.Minute,
			Events: []workload.Event{
				{Kind: workload.ReclaimStorm, At: 10 * time.Minute, Until: 2 * time.Hour,
					Every: 7 * time.Minute, Hosts: 3, Dwell: 3 * time.Minute},
			},
		},
	}
}

// TestPolicyBackfillPins records pairSpec at one seed under each of the
// nine policy and backfill pairs and pins the sha256 of each event
// stream. The two committed traces cover only two of the pairs; these
// pins make a scheduler change that alters any decision, RNG draw or
// price under any pair show up as a changed hash.
func TestPolicyBackfillPins(t *testing.T) {
	pins := map[string]string{
		"fifo/none":           "0a4f7fc67741cae393f8983ca3e13aff906e7e5619f84ccd1d2b0b6269df7d8d",
		"fifo/aggressive":     "23c1179a73f9e289794549ef852bda4a44aa051a33824ca5b3efc24b68207872",
		"fifo/easy":           "34186cf27a4861bc7009911122a8690c00f8ceeafb0e6158b1786d40bce20994",
		"priority/none":       "c257dede00b0f0ddc0610428fe420fabf34c37b56040ffc509af3b14f69c8612",
		"priority/aggressive": "da5f3ed7d7936ebb11d56dcaa026b23b7a734c28bea7fb30c9dca93a8482f2e4",
		"priority/easy":       "54276262061264b8a086666409cf432a2cf90b64f818b1aed282b04f0e7266a2",
		"fair/none":           "0b9d282713efd16430a774c6ba93ff59bbbf7863841904a6922664d218a40dca",
		"fair/aggressive":     "32fb8057a471741d65b6f9765b6f7519ccfede2dd478f97354c031e8d38a9d28",
		"fair/easy":           "639c0b20629f9aa7e6591fbcb852ed7cd459b0a4c00cac54a91c49a10f6993b4",
	}
	for _, policy := range []farm.Policy{farm.FIFO, farm.Priority, farm.WeightedFair} {
		for _, backfill := range []farm.BackfillMode{farm.BackfillNone, farm.BackfillAggressive, farm.BackfillEASY} {
			name := policy.String() + "/" + backfill.String()
			t.Run(name, func(t *testing.T) {
				tr, sum, err := workload.Record(pairSpec(), workload.RunConfig{Seed: 5, Policy: policy, Backfill: backfill})
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.Sum256([]byte(strings.Join(tr.Events, "\n")))
				got := hex.EncodeToString(h[:])
				t.Logf("%s: %d events, %d jobs, %d preemptions, %d backfills, %d reclaims, %d migrations, %d easy-degraded: %s",
					name, len(tr.Events), len(sum.Jobs), sum.Preemptions, sum.Backfills, sum.Reclaims, sum.Migrations, sum.EASYDegraded, got)
				if want := pins[name]; got != want {
					t.Errorf("%s: event stream sha256 %s, want %s", name, got, want)
				}
			})
		}
	}
}
