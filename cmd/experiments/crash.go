package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"repro/farm"
	"repro/internal/ckpt"
	"repro/internal/cluster"
)

// crashStorm scripts deterministic user activity from nothing but the
// virtual time and the observable cluster state: every ten minutes a
// user sits down at the first reserved, un-reclaimed workstation (scan
// order), and at every ten-minutes-plus-five mark the first returned
// user packs up again. Because it keeps no state of its own, the exact
// same function can be re-attached to a farm restored from a
// checkpoint — the restored cluster snapshot makes it take the same
// decisions the dead coordinator's copy would have.
func crashStorm(t time.Duration, c *cluster.Cluster) {
	switch {
	case t > 0 && t%(10*time.Minute) == 0:
		for _, h := range c.Hosts {
			if h.Assigned() >= 0 && !h.Reclaimed() {
				c.Reclaim(h)
				return
			}
		}
	case t > 5*time.Minute && t%(10*time.Minute) == 5*time.Minute:
		for _, h := range c.Hosts {
			if h.Reclaimed() && h.Jobs() > 0 {
				c.UserGone(h)
				return
			}
		}
	}
}

// crashRecovery is the coordinator-crash experiment: the reclaim-storm
// workload runs twice on the same seed — once uninterrupted, once
// checkpointed to disk twelve minutes in and then killed mid-storm. A
// fresh farm restored from the checkpoint directory finishes the second
// run, and the two summaries must match bit for bit: the manifest
// carries the virtual clock, RNG state, queue order, per-job accounting
// and full cluster snapshot, so recovery replays the exact future the
// crash stole. Any mismatch is the entry's error.
func crashRecovery(w io.Writer) error {
	const crashAt = 12 * time.Minute
	header(w, "Coordinator crash recovery: checkpoint mid-storm, kill, restore (seed 1, FIFO)")
	specs := stormMix()
	fmt.Fprintf(w, "%d jobs; a user reclaims a reserved host every 10 virtual minutes and\n", len(specs))
	fmt.Fprintf(w, "leaves at the +5 marks; the coordinator dies at t=%v and is restored\n\n", crashAt)

	setup := func(scenario func(time.Duration, *cluster.Cluster), opts ...farm.Option) (*farm.Farm, error) {
		f, err := farm.New(quietPaperPool(),
			append([]farm.Option{farm.WithSeed(1), farm.WithScenario(time.Minute, scenario)}, opts...)...)
		if err != nil {
			return nil, err
		}
		for _, sp := range specs {
			if _, err := f.Submit(sp, nil); err != nil {
				return nil, err
			}
		}
		f.Drain()
		return f, nil
	}

	// The uninterrupted reference.
	ref, err := setup(crashStorm)
	if err != nil {
		return err
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		return err
	}

	// The doomed coordinator: same trace, but at crashAt its Run is
	// canceled, which persists the farm into dir, and it "dies" (the
	// in-memory farm is discarded).
	dir, err := os.MkdirTemp("", "fluidsim-crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	doomed, err := setup(func(t time.Duration, c *cluster.Cluster) {
		crashStorm(t, c)
		if t >= crashAt {
			crash()
		}
	}, farm.WithCheckpoint(dir, 0, 0))
	if err != nil {
		return err
	}
	if _, err := doomed.Run(ctx); !errors.Is(err, context.Canceled) {
		return fmt.Errorf("crashed run: %v (want context.Canceled)", err)
	}

	m, err := ckpt.Load(dir)
	if err != nil {
		return err
	}
	byPhase := map[string]int{}
	for _, jr := range m.Jobs {
		byPhase[jr.Phase]++
	}
	fmt.Fprintf(w, "checkpoint at t=%v: %d jobs (%d running, %d queued, %d pending, %d finished), %d reclaims so far\n",
		m.SavedAt, len(m.Jobs), byPhase[ckpt.PhaseRunning], byPhase[ckpt.PhaseQueued],
		byPhase[ckpt.PhasePending], byPhase[ckpt.PhaseFinished], m.Reclaims)

	// Recovery: a fresh pool, a restored farm, the same stateless
	// scenario re-attached — and the tail of the storm replayed.
	restored, err := farm.Restore(dir, cluster.NewPaperCluster(), nil,
		farm.WithScenario(time.Minute, crashStorm))
	if err != nil {
		return err
	}
	got, err := restored.Run(context.Background())
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%-14s %12s %12s %12s %9s %9s %9s\n",
		"run", "makespan", "mean wait", "max wait", "util", "reclaims", "migr")
	for _, row := range []struct {
		name string
		sum  farm.Summary
	}{{"uninterrupted", want}, {"restored", got}} {
		fmt.Fprintf(w, "%-14s %12s %12s %12s %9.3f %9d %9d\n",
			row.name, row.sum.Makespan.Round(time.Second), row.sum.MeanWait.Round(time.Second),
			row.sum.MaxWait.Round(time.Second), row.sum.Utilization, row.sum.Reclaims, row.sum.Migrations)
	}

	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("IDENTITY MISMATCH: the restored farm's summary differs from the uninterrupted run\nwant:\n%v\ngot:\n%v", want, got)
	}
	fmt.Fprintln(w, "\nevery per-job field and aggregate metric of the restored run is")
	fmt.Fprintln(w, "bit-identical to the uninterrupted one: the manifest (virtual clock,")
	fmt.Fprintln(w, "RNG state, queue order, fair-share credit, cluster snapshot) plus the")
	fmt.Fprintln(w, "per-rank dump files are a complete coordinator state.")
	return nil
}
