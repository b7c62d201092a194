package autoscale_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/farm"
	"repro/farm/autoscale"
)

// fixedTimer prices every step at one virtual second, decoupling the
// tests' virtual timelines from host speeds and rank counts.
func fixedTimer(farm.JobSpec, farm.Shape, []*farm.Host) (float64, error) {
	return 1, nil
}

func sample(queue int, free, total int, running, queued []farm.JobSample) farm.Sample {
	return farm.Sample{QueueDepth: queue, FreeHosts: free, TotalHosts: total,
		Running: running, Queued: queued}
}

// TestSupplyDemandGrow pins the pure grow-side policy arithmetic on
// handmade samples.
func TestSupplyDemandGrow(t *testing.T) {
	p := autoscale.SupplyDemand{} // Spare 2, Chunk 2, MaxFactor 2

	// Queue empty, plenty idle: grow the job farthest from done by one
	// chunk.
	decs := p.Decide(sample(0, 10, 25, []farm.JobSample{
		{ID: "near-done", Ranks: 4, SpecRanks: 4, Progress: 0.9},
		{ID: "fresh", Ranks: 4, SpecRanks: 4, Progress: 0.2},
	}, nil))
	if len(decs) != 1 || decs[0].Job != "fresh" || decs[0].Action != autoscale.Grow ||
		decs[0].From != 4 || decs[0].To != 6 {
		t.Errorf("grow decisions = %+v, want fresh 4->6", decs)
	}

	// Only the spare is free: hold.
	if decs := p.Decide(sample(0, 2, 25, []farm.JobSample{
		{ID: "a", Ranks: 4, SpecRanks: 4},
	}, nil)); len(decs) != 0 {
		t.Errorf("spare-only decisions = %+v, want none", decs)
	}

	// MaxFactor caps the width: a job already at twice its submitted
	// ranks grows no further.
	if decs := p.Decide(sample(0, 10, 25, []farm.JobSample{
		{ID: "a", Ranks: 8, SpecRanks: 4},
	}, nil)); len(decs) != 0 {
		t.Errorf("capped decisions = %+v, want none", decs)
	}

	// One rank below the cap: the chunk is clipped to it.
	decs = p.Decide(sample(0, 10, 25, []farm.JobSample{
		{ID: "a", Ranks: 7, SpecRanks: 4},
	}, nil))
	if len(decs) != 1 || decs[0].To != 8 {
		t.Errorf("near-cap decisions = %+v, want a 7->8", decs)
	}

	// Free hosts below the chunk: the grow is clipped to what exists.
	decs = p.Decide(sample(0, 3, 25, []farm.JobSample{
		{ID: "a", Ranks: 4, SpecRanks: 4},
	}, nil))
	if len(decs) != 1 || decs[0].To != 5 {
		t.Errorf("scarce decisions = %+v, want a 4->5", decs)
	}
}

// TestSupplyDemandShrink pins the demand side: grown jobs give back
// ranks, nearest-done first, never below their submitted width.
func TestSupplyDemandShrink(t *testing.T) {
	p := autoscale.SupplyDemand{Chunk: 4}

	decs := p.Decide(sample(1, 2, 25, []farm.JobSample{
		{ID: "halfway", Ranks: 6, SpecRanks: 4, Progress: 0.5},
		{ID: "almost", Ranks: 8, SpecRanks: 4, Progress: 0.9},
		{ID: "unstretched", Ranks: 4, SpecRanks: 4, Progress: 0.1},
	}, []farm.JobSample{{ID: "w", Ranks: 8, SpecRanks: 8}}))
	// The widest queued job needs 8, 2 are free: 6 short. "almost" gives
	// back a chunk (8->4, frees 4), then "halfway" covers the rest
	// (6->4, frees 2). The unstretched job is never touched.
	if len(decs) != 2 {
		t.Fatalf("shrink decisions = %+v, want 2", decs)
	}
	if decs[0].Job != "almost" || decs[0].Action != autoscale.Shrink || decs[0].To != 4 {
		t.Errorf("first shrink = %+v, want almost 8->4", decs[0])
	}
	if decs[1].Job != "halfway" || decs[1].To != 4 {
		t.Errorf("second shrink = %+v, want halfway 6->4", decs[1])
	}

	// Demand already seated by free hosts: nothing to do.
	if decs := p.Decide(sample(1, 8, 25, []farm.JobSample{
		{ID: "a", Ranks: 8, SpecRanks: 4},
	}, []farm.JobSample{{ID: "w", Ranks: 8, SpecRanks: 8}})); len(decs) != 0 {
		t.Errorf("seated-demand decisions = %+v, want none", decs)
	}

	// No grown jobs: nothing can be given back.
	if decs := p.Decide(sample(1, 0, 25, []farm.JobSample{
		{ID: "a", Ranks: 20, SpecRanks: 20},
	}, []farm.JobSample{{ID: "w", Ranks: 8, SpecRanks: 8}})); len(decs) != 0 {
		t.Errorf("no-grown decisions = %+v, want none", decs)
	}
}

// TestEngineHysteresisAndCooldown runs the full loop on a real farm: a
// lone 4-rank job on the paper pool grows in chunks, but only after two
// confirming ticks, and at most once per cooldown window.
func TestEngineHysteresisAndCooldown(t *testing.T) {
	eng := &autoscale.Engine{
		Policy:   autoscale.SupplyDemand{}, // chunk 2, max factor 2 -> cap 8
		Confirm:  2,
		Cooldown: 30 * time.Second,
	}
	pool := farm.NewPaperCluster()
	pool.Advance(30 * time.Minute)
	f, err := farm.New(pool,
		farm.WithSeed(42),
		farm.WithTimer(fixedTimer),
		eng.Option(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	sub := f.SubscribeBuffered(1024)
	job, err := f.Submit(farm.JobSpec{
		ID: "solo", Method: "lb2d", JX: 2, JY: 2, Side: 10, Steps: 60,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	sum, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Ticks propose grow from 5s on. Confirm=2 actuates at 10s (4->6);
	// the 30s cooldown delays the next commit to 40s (6->8, the cap);
	// nothing further is proposed at 8 ranks.
	var resizes []farm.JobResized
	holds, acts := 0, 0
	for ev := range sub.Events() {
		switch e := ev.(type) {
		case farm.JobResized:
			resizes = append(resizes, e)
		case farm.AutoscaleDecision:
			if e.Action == "hold" {
				holds++
			} else {
				acts++
			}
		}
	}
	if len(resizes) != 2 {
		t.Fatalf("JobResized events %+v, want 2", resizes)
	}
	if resizes[0].T != 10*time.Second || resizes[0].From != 4 || resizes[0].To != 6 {
		t.Errorf("first resize %+v, want 4->6 at 10s (one confirming tick first)", resizes[0])
	}
	if resizes[1].T != 40*time.Second || resizes[1].From != 6 || resizes[1].To != 8 {
		t.Errorf("second resize %+v, want 6->8 at 40s (cooldown from 10s)", resizes[1])
	}
	if acts != 2 {
		t.Errorf("%d actuating decisions, want 2", acts)
	}
	// Held ticks: the confirming ones (5s, 15s) and the cooldown ones
	// (20s..35s).
	if holds < 4 {
		t.Errorf("%d hold decisions recorded, want >= 4 (hysteresis and cooldown deliberation)", holds)
	}

	rec, ok := job.Metrics()
	if !ok {
		t.Fatal("job has no final metrics")
	}
	if rec.Resizes != 2 || rec.GrowRanks != 4 || rec.Ranks != 8 {
		t.Errorf("resizes=%d grow=%d ranks=%d, want 2/4/8", rec.Resizes, rec.GrowRanks, rec.Ranks)
	}
	if sum.Resizes != 2 {
		t.Errorf("summary resizes = %d, want 2", sum.Resizes)
	}
}

// TestEngineShrinksForArrival: a grown job gives capacity back when a
// wide job arrives, and the arrival gets seated.
func TestEngineShrinksForArrival(t *testing.T) {
	eng := &autoscale.Engine{
		Policy: autoscale.SupplyDemand{Chunk: 8, MaxFactor: 6},
		// Confirm < 2 and zero cooldown: act on every tick.
	}
	pool := farm.NewPaperCluster()
	pool.Advance(30 * time.Minute)
	f, err := farm.New(pool,
		farm.WithSeed(7),
		farm.WithTimer(fixedTimer),
		eng.Option(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	sub := f.SubscribeBuffered(1024)
	if _, err := f.Submit(farm.JobSpec{
		ID: "elastic", Method: "lb2d", JX: 2, JY: 2, Side: 10, Steps: 120,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(farm.JobSpec{
		ID: "wide", Method: "lb2d", JX: 5, JY: 4, Side: 10, Steps: 20,
		Submit: 12 * time.Second,
	}, nil); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	sum, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Jobs) != 2 {
		t.Fatalf("%d jobs finished, want 2", len(sum.Jobs))
	}

	grew, shrank, placedWide := false, false, false
	for ev := range sub.Events() {
		switch e := ev.(type) {
		case farm.JobResized:
			if e.ID == "elastic" && e.To > e.From {
				grew = true
			}
			if e.ID == "elastic" && e.To < e.From {
				if !grew {
					t.Error("shrink before any grow")
				}
				shrank = true
			}
		case farm.JobPlaced:
			if e.ID == "wide" {
				placedWide = true
				if !shrank {
					t.Error("wide job placed before the elastic job shrank")
				}
			}
		}
	}
	if !grew || !shrank || !placedWide {
		t.Errorf("grew=%v shrank=%v placedWide=%v, want all true", grew, shrank, placedWide)
	}
}

// TestShrinkOrderMatchesSortOracle: grown jobs give ranks back in the
// order the frozen reflection sort gave them (most progress first, then
// ID), equal progress and equal IDs included. The queued job is wider
// than the pool, so every grown job gets a decision and the decisions
// list the whole order.
func TestShrinkOrderMatchesSortOracle(t *testing.T) {
	oracle := func(grown []farm.JobSample) {
		sort.SliceStable(grown, func(i, k int) bool {
			if grown[i].Progress != grown[k].Progress {
				return grown[i].Progress > grown[k].Progress
			}
			return grown[i].ID < grown[k].ID
		})
	}
	r := rand.New(rand.NewSource(1))
	p := autoscale.SupplyDemand{Chunk: 100}
	for range 200 {
		var running, grown []farm.JobSample
		for i := range 1 + r.Intn(12) {
			j := farm.JobSample{ID: fmt.Sprintf("j%d", r.Intn(5)), SpecRanks: 2, Ranks: 2 + r.Intn(2)*(i+1),
				Progress: float64(r.Intn(4)) / 4}
			running = append(running, j)
			if j.Ranks > j.SpecRanks {
				grown = append(grown, j)
			}
		}
		oracle(grown)
		decs := p.Decide(sample(1, 0, 1000, running, []farm.JobSample{{ID: "w", Ranks: 1000, SpecRanks: 1000}}))
		if len(decs) != len(grown) {
			t.Fatalf("%d decisions for %d grown jobs", len(decs), len(grown))
		}
		for i, d := range decs {
			if d.Job != grown[i].ID || d.From != grown[i].Ranks {
				t.Fatalf("decision %d shrinks %s from %d, the frozen sort puts %s (%d ranks) there",
					i, d.Job, d.From, grown[i].ID, grown[i].Ranks)
			}
		}
	}
}
