// Migration: the section-5.1 scenario end to end. Twenty worker goroutines
// run a flow problem placed on the paper's virtual 25-workstation pool;
// mid-run a regular user starts a full-time job on one of the hosts, the
// five-minute load average climbs past 1.5, the monitoring program detects
// it and migrates the affected subprocess to a free host (global sync,
// state dump, restart, channel re-open) — and the final solution is
// bitwise identical to an undisturbed run.
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fluid"
	"repro/internal/syncfile"
)

func config() *core.Config2D {
	d, err := decomp.New2D(5, 4, 60, 40, decomp.Full)
	if err != nil {
		log.Fatal(err)
	}
	d.PeriodicX = true
	par := fluid.DefaultParams()
	par.Nu = 0.1
	par.Eps = 0.01
	par.ForceX = 1e-5
	return &core.Config2D{
		Method: core.MethodLB,
		Par:    par,
		Mask:   fluid.ChannelMask2D(60, 40),
		D:      d,
		InitRho: func(x, y int) float64 {
			return 1 + 0.001*math.Sin(2*math.Pi*float64(x)/60)
		},
	}
}

func main() {
	const steps = 400

	// Reference: the same problem with nobody disturbing the cluster.
	ref, _, err := core.RunSequential2D(config(), steps)
	if err != nil {
		log.Fatal(err)
	}

	syncDir, err := os.MkdirTemp("", "fluidsim-sync-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(syncDir)
	sf, err := syncfile.New(syncDir)
	if err != nil {
		log.Fatal(err)
	}

	job, progs, err := core.NewJob2D(config(), core.HubFactory(), sf, steps)
	if err != nil {
		log.Fatal(err)
	}

	pool := cluster.NewPaperCluster()
	pool.Advance(30 * time.Minute) // everyone idle: the whole pool is free
	if err := job.PlaceOnCluster(pool); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed 20 subprocesses on the pool; rank 7 runs on %s\n", job.HostOf(7).Name)

	job.Start()
	time.Sleep(50 * time.Millisecond) // the computation gets going

	// A regular user shows up on rank 7's workstation.
	busy := job.HostOf(7)
	busy.TouchUser()
	busy.StartJob()
	pool.Advance(10 * time.Minute)
	l1, l5, l15 := busy.Uptime()
	fmt.Printf("user job started on %s; uptime: %.2f %.2f %.2f\n", busy.Name, l1, l5, l15)

	// The monitoring program notices and migrates.
	migrated, err := job.MonitorOnce(cluster.DefaultMigrationPolicy(), func(rank int, st *dump.State) {
		fmt.Printf("rank %d dumped at step %d (%d fields)\n", rank, st.Step, len(st.Fields))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migrated ranks %v; rank 7 now runs on %s (epoch %d)\n",
		migrated, job.HostOf(7).Name, job.Epoch())

	if err := job.WaitDone(); err != nil {
		log.Fatal(err)
	}
	job.Shutdown()

	got := progs.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != got.Rho[i] || ref.Vx[i] != got.Vx[i] || ref.Vy[i] != got.Vy[i] {
			log.Fatalf("solution differs at node %d after migration", i)
		}
	}
	fmt.Printf("final state after %d steps is bitwise identical to the undisturbed run\n", steps)
	fmt.Printf("migration cost model: one 30 s migration per 45 min = %.1f%% overhead\n", 100*30.0/(45*60))
}
