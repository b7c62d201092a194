// Farm: the public farm API end to end with a real simulation in the
// mix. A low-priority 2D lattice-Boltzmann channel flow starts on four
// hosts of the paper's 25-workstation pool; five virtual minutes later
// a high-priority 22-rank burst arrives and the farm preempts the
// simulation through the section-5.1 migration protocol — every rank
// synchronizes, dumps its state and exits. When the burst drains, the
// simulation resumes from its checkpoint on freshly reserved hosts. At
// fifteen virtual minutes a regular user sits back down at one of the
// simulation's workstations: the farm reacts in the same scheduling
// round, migrating just the displaced rank to a fresh host and
// repricing the job, instead of squatting beside the user. After all of
// that, the final solution is still bitwise identical to an undisturbed
// run.
//
// The example is written against the public farm package — the
// supported control-plane surface:
//
//   - farm.New builds the farm with functional options (policy, seed,
//     periodic checkpointing, a scripted scenario);
//   - Submit returns a typed *farm.Job handle whose Metrics report the
//     job's lifecycle after the run;
//   - Subscribe taps the structured event stream — every preemption,
//     migration, host reclaim and checkpoint commit of the scheduling
//     rounds, in deterministic order for the fixed seed;
//   - Drain closes the farm and Run(ctx) drives it to completion
//     (cancelling the context would checkpoint and stop it instead).
//
// The farm runs with its default EASY backfill: jobs behind a blocked
// queue head may only fill gaps if they finish before the head's
// projected start, so bursts of small jobs cannot starve a wide one.
// farm.WithBackfill selects the aggressive or strict-order modes.
//
// The farm also checkpoints itself to disk every four virtual minutes
// (farm.WithCheckpoint): the running simulation's rank states are
// persisted through the suspend-and-resume snapshot — without evicting
// it — next to a manifest holding the coordinator's complete
// bookkeeping, so a crashed coordinator could be rebuilt with
// farm.Restore and finish bit-identically (see `go run
// ./cmd/experiments -exp=crash`).
//
//	go run ./examples/farm
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/farm"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/syncfile"
)

func config() (*core.Config2D, error) {
	d, err := decomp.New2D(2, 2, 40, 24, decomp.Full)
	if err != nil {
		return nil, err
	}
	d.PeriodicX = true
	par := fluid.DefaultParams()
	par.Nu = 0.1
	par.Eps = 0.01
	par.ForceX = 1e-5
	return &core.Config2D{
		Method: core.MethodLB,
		Par:    par,
		Mask:   fluid.ChannelMask2D(40, 24),
		D:      d,
	}, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drives the scenario, narrating to w, and returns an error if any
// step fails or the final solution is not bitwise identical to the
// undisturbed run.
func run(w io.Writer) error {
	const steps = 200

	// Reference: the same flow with the farm to itself.
	refCfg, err := config()
	if err != nil {
		return err
	}
	ref, _, err := core.RunSequential2D(refCfg, steps)
	if err != nil {
		return err
	}

	syncDir, err := os.MkdirTemp("", "fluidsim-farm-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(syncDir)
	sf, err := syncfile.New(syncDir)
	if err != nil {
		return err
	}

	cfg, err := config()
	if err != nil {
		return err
	}
	job, progs, err := core.NewJob2D(cfg, core.HubFactory(), sf, steps)
	if err != nil {
		return err
	}

	pool := farm.NewPaperCluster()
	pool.Advance(30 * time.Minute) // everyone idle: the whole pool is free

	// Durability: persist the whole farm every four virtual minutes. A
	// running simulation is checkpointed through the suspend/resume
	// round trip, so it keeps its hosts and its results stay identical.
	ckptDir, err := os.MkdirTemp("", "fluidsim-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckptDir)

	// Fifteen virtual minutes in — after the burst has drained and the
	// simulation resumed — a user reclaims one of its workstations.
	reclaimed := false
	f, err := farm.New(pool,
		farm.WithPolicy(farm.Priority),
		farm.WithSeed(42),
		farm.WithCheckpoint(ckptDir, 4*time.Minute, 0),
		farm.WithScenario(time.Minute, func(t time.Duration, c *farm.Cluster) {
			if t < 15*time.Minute || reclaimed {
				return
			}
			for _, h := range c.Hosts {
				if h.Owner() == "channel-sim" {
					c.Reclaim(h)
					reclaimed = true
					return
				}
			}
		}))
	if err != nil {
		return err
	}

	// Tap the structured decision stream before running; the interesting
	// lifecycle events are printed after the run, in emission order.
	sub := f.Subscribe()

	// The simulation: low priority. Side inflates its virtual workload so
	// the burst arrives mid-run on the scheduler's clock.
	sim, err := f.Submit(farm.JobSpec{
		ID: "channel-sim", Method: "lb2d", JX: 2, JY: 2, Side: 1000, Steps: steps,
		Priority: 0,
	}, &farm.CoreWorkload{Job: job, Cluster: pool})
	if err != nil {
		return err
	}
	// The burst: 22 ranks, high priority, five virtual minutes in. Only
	// 21 hosts are free then, so the scheduler must preempt.
	if _, err := f.Submit(farm.JobSpec{
		ID: "param-sweep", Method: "lb2d", JX: 11, JY: 2, Side: 40, Steps: 2000,
		Priority: 9, Submit: 5 * time.Minute,
	}, nil); err != nil {
		return err
	}

	fmt.Fprintln(w, "running the farm (priority policy, EASY backfill, seed 42)...")
	f.Drain() // no more submissions: Run drains the farm and returns
	sum, err := f.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprint(w, sum)

	fmt.Fprintln(w, "\nlifecycle events (from the farm's structured stream):")
	checkpoints := 0
	for ev := range sub.Events() {
		switch ev.(type) {
		case farm.JobPreempted, farm.HostReclaimed, farm.JobMigrated:
			fmt.Fprintf(w, "  %s\n", ev)
		case farm.CheckpointSaved:
			checkpoints++
		}
	}
	fmt.Fprintf(w, "  (plus %d periodic checkpoint commits, every 4 virtual minutes)\n", checkpoints)

	got := progs.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != got.Rho[i] || ref.Vx[i] != got.Vx[i] || ref.Vy[i] != got.Vy[i] {
			return fmt.Errorf("solution differs at node %d after preemption + migration", i)
		}
	}
	simRec, _ := sim.Metrics()
	fmt.Fprintf(w, "\nthe simulation survived %d preemption(s) and %d mid-run migration(s)\n",
		simRec.Preemptions, simRec.Migrations)
	fmt.Fprintf(w, "and its %d-step solution is bitwise identical to the undisturbed run\n", steps)
	fmt.Fprintf(w, "(communication epoch %d after the dump/rebuild round trips)\n", job.Epoch())

	if m, err := ckpt.Load(ckptDir); err == nil {
		saved := 0
		for _, jr := range m.Jobs {
			if len(jr.StateSteps) > 0 {
				saved++
			}
		}
		fmt.Fprintf(w, "\nlast auto-checkpoint: t=%v, %d jobs in the manifest (%d with rank\n",
			m.SavedAt, len(m.Jobs), saved)
		fmt.Fprintln(w, "states on disk) — a crashed coordinator would restore from it with")
		fmt.Fprintln(w, "farm.Restore and finish this exact farm, bit-identically")
	}
	return nil
}
