package farm_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/farm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/syncfile"
)

// ExampleNew runs the smallest complete farm: one spec-only job on the
// paper's 25-host pool, replayed deterministically in virtual time.
func ExampleNew() {
	pool := farm.NewPaperCluster()
	pool.Advance(30 * time.Minute) // everyone idle: the whole pool is free

	f, err := farm.New(pool,
		farm.WithPolicy(farm.FIFO),
		farm.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	job, err := f.Submit(farm.JobSpec{
		ID: "demo", Method: "lb2d", JX: 2, JY: 2, Side: 40, Steps: 1000,
	}, nil) // nil workload: replay the spec without running a simulation
	if err != nil {
		log.Fatal(err)
	}
	sum, err := f.Run(context.Background()) // returns once every job has finished
	if err != nil {
		log.Fatal(err)
	}
	rec, _ := job.Metrics()
	fmt.Printf("jobs finished: %d\n", len(sum.Jobs))
	fmt.Printf("demo ran on %d hosts, status %v\n", rec.Ranks, job.Status())
	// Output:
	// jobs finished: 1
	// demo ran on 4 hosts, status finished
}

// ExampleWithAutoscaler widens a running job from the control tick:
// at ten virtual seconds the callback resizes it, so the job suspends at
// a step boundary, re-splits its global grid onto six subregions, and
// finishes on the wider placement with its numerics unchanged. The
// callback runs on the scheduling goroutine, so the resize lands at
// exactly that instant.
func ExampleWithAutoscaler() {
	pool := farm.NewPaperCluster()
	pool.Advance(30 * time.Minute)

	f, err := farm.New(pool,
		farm.WithSeed(1),
		farm.WithAutoscaler(time.Second, func(t time.Duration, ctl farm.AutoscaleControl) {
			if t == 10*time.Second {
				if err := ctl.Resize("elastic", 6); err != nil {
					log.Fatal(err)
				}
			}
		}))
	if err != nil {
		log.Fatal(err)
	}
	job, err := f.Submit(farm.JobSpec{
		ID: "elastic", Method: "lb2d", JX: 2, JY: 2, Side: 40, Steps: 5000,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	rec, _ := job.Metrics()
	fmt.Printf("resized %d time(s), finished on %d hosts\n", rec.Resizes, rec.Ranks)
	// Output:
	// resized 1 time(s), finished on 6 hosts
}

// ExampleJob_Wait drives the farm on one goroutine and blocks on the
// job handle from another — the supported pattern for waiting on one
// job while the farm runs.
func ExampleJob_Wait() {
	pool := farm.NewPaperCluster()
	pool.Advance(30 * time.Minute)

	f, err := farm.New(pool)
	if err != nil {
		log.Fatal(err)
	}
	job, err := f.Submit(farm.JobSpec{
		ID: "demo", Method: "fd2d", JX: 1, JY: 1, Side: 32, Steps: 500,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		_, _ = f.Run(context.Background())
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("demo:", job.Status())
	// Output:
	// demo: finished
}

// Example_preemptAndMigrate puts a real simulation in the mix. A
// low-priority 2D lattice-Boltzmann channel flow starts on four hosts of
// the paper's 25-workstation pool. Five virtual minutes later a
// high-priority 22-rank burst arrives, and the farm preempts the
// simulation through the section-5.1 protocol: every rank synchronizes,
// dumps its state and exits. When the burst drains, the simulation
// resumes from its dumps on freshly reserved hosts. At fifteen virtual
// minutes a regular user sits back down at one of its workstations, and
// the farm migrates just that rank to a fresh host in the same round.
// Every four virtual minutes the farm checkpoints itself, the running
// simulation through a snapshot that keeps its hosts. After all of that
// the final solution is bitwise identical to an undisturbed run.
func Example_preemptAndMigrate() {
	if err := preemptAndMigrate(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// running the farm (priority policy, EASY backfill, seed 42)...
	// job          ranks prio       submit         wait         done  preempt bfill  migr   wtd   imbal
	// channel-sim      4    0           0s           0s   1h26m41.1s        1           1         1.000
	// param-sweep     22    9         5m0s           0s      6m30.2s        0           0   yes   1.060
	// makespan 1h26m41.1s  mean wait 0s  max wait 0s  utilization 0.172  preemptions 1  backfills 0
	// reclaims 1  migrations 1  repricings 1  resizes 0 (+0/-0 ranks)  weighted 1  imbalance mean 1.030 max 1.060  easy-degraded 0
	//
	// lifecycle events (from the farm's structured stream):
	//   t=5m0s preempted channel-sim remaining=188.26
	//   t=15m0s reclaimed hp715-05 owner="channel-sim"
	//   t=15m0s migrated channel-sim [1>hp715-10] step=25.5545s finish=1h26m41.063068588s
	//   (plus 21 periodic checkpoint commits, every 4 virtual minutes)
	//
	// the simulation survived 1 preemption(s) and 1 mid-run migration(s)
	// and its 200-step solution is bitwise identical to the undisturbed run
	// (communication epoch 23 after the dump/rebuild round trips)
	//
	// last auto-checkpoint: t=1h24m0s, 2 jobs in the manifest; a crashed
	// coordinator would restore from it with farm.Restore and finish this
	// exact farm, bit-identically
}

// preemptAndMigrate drives Example_preemptAndMigrate's scenario,
// narrating to w. It returns an error if a step fails or the final
// solution differs from the undisturbed run by a bit.
func preemptAndMigrate(w io.Writer) error {
	const steps = 200
	config := func() (*core.Config2D, error) {
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

	// Reference: the same flow with the farm to itself.
	refCfg, err := config()
	if err != nil {
		return err
	}
	ref, _, err := core.RunSequential2D(refCfg, steps)
	if err != nil {
		return err
	}

	syncDir, err := os.MkdirTemp("", "farm-sync-*")
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
	ckptDir, err := os.MkdirTemp("", "farm-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckptDir)

	pool := farm.NewPaperCluster()
	pool.Advance(30 * time.Minute)
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
	sub := f.SubscribeBuffered(1024)

	// Side inflates the simulation's virtual workload so that the burst
	// arrives mid-run on the scheduler's clock. Only 21 hosts are free
	// when the 22-rank burst arrives, so the scheduler must preempt.
	sim, err := f.Submit(farm.JobSpec{
		ID: "channel-sim", Method: "lb2d", JX: 2, JY: 2, Side: 1000, Steps: steps,
	}, &farm.CoreWorkload{Job: job})
	if err != nil {
		return err
	}
	if _, err := f.Submit(farm.JobSpec{
		ID: "param-sweep", Method: "lb2d", JX: 11, JY: 2, Side: 40, Steps: 2000,
		Priority: 9, Submit: 5 * time.Minute,
	}, nil); err != nil {
		return err
	}

	fmt.Fprintln(w, "running the farm (priority policy, EASY backfill, seed 42)...")
	sum, err := f.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprint(w, sum)

	fmt.Fprintln(w, "\nlifecycle events (from the farm's structured stream):")
	var checkpoints []farm.CheckpointSaved
	for ev := range sub.Events() {
		switch ev := ev.(type) {
		case farm.JobPreempted, farm.HostReclaimed, farm.JobMigrated:
			fmt.Fprintf(w, "  %s\n", ev)
		case farm.CheckpointSaved:
			checkpoints = append(checkpoints, ev)
		}
	}
	fmt.Fprintf(w, "  (plus %d periodic checkpoint commits, every 4 virtual minutes)\n", len(checkpoints))

	got := progs.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != got.Rho[i] || ref.Vx[i] != got.Vx[i] || ref.Vy[i] != got.Vy[i] {
			return fmt.Errorf("solution differs at node %d after preemption + migration", i)
		}
	}
	rec, _ := sim.Metrics()
	fmt.Fprintf(w, "\nthe simulation survived %d preemption(s) and %d mid-run migration(s)\n",
		rec.Preemptions, rec.Migrations)
	fmt.Fprintf(w, "and its %d-step solution is bitwise identical to the undisturbed run\n", steps)
	fmt.Fprintf(w, "(communication epoch %d after the dump/rebuild round trips)\n", job.Epoch())

	if len(checkpoints) == 0 {
		return fmt.Errorf("the farm committed no checkpoint")
	}
	last := checkpoints[len(checkpoints)-1]
	fmt.Fprintf(w, "\nlast auto-checkpoint: t=%v, %d jobs in the manifest; a crashed\n", last.T, last.Jobs)
	fmt.Fprintln(w, "coordinator would restore from it with farm.Restore and finish this")
	fmt.Fprintln(w, "exact farm, bit-identically")
	return nil
}
