package main

import (
	"fmt"
	"io"
	"time"

	"repro/farm"
	"repro/internal/cluster"
	"repro/internal/decomp"
	"repro/internal/perf"
)

// uniformPricing prices every placement with the uniform
// (identical-spans) decomposition regardless of the job's chosen shape —
// the pre-weighting behaviour, kept as the experiment's baseline.
func uniformPricing(spec farm.JobSpec, _ decomp.Shape, hosts []*cluster.Host) (float64, error) {
	return farm.ComputeTimer(spec, decomp.Shape{}, hosts)
}

// hetero compares uniform and speed-weighted decomposition on
// mixed-model placements: per-step compute and perf-engine prices with
// their load-imbalance ratios, then a full farm replay priced both ways.
// It fails when weighting regresses: a weighted step not strictly
// cheaper than the uniform one on a mixed placement, a weighted
// imbalance ratio drifting from balance, or a longer weighted replay.
func hetero(w io.Writer) error {
	header(w, "Heterogeneous pool: uniform vs speed-weighted decomposition")
	fmt.Fprintln(w, "spans sized by per-rank host speed (section 7's 715/720/710 mix);")
	fmt.Fprintln(w, "uniform splitting runs every job at its slowest host's pace")
	fmt.Fprintln(w)

	host := func(m cluster.Model, i int) *cluster.Host {
		return cluster.NewHost(fmt.Sprintf("%v-%02d", m, i), m)
	}
	cases := []struct {
		name  string
		spec  farm.JobSpec
		hosts []*cluster.Host
	}{
		{"(4x1) lb2d chain", farm.JobSpec{ID: "chain", Method: "lb2d", JX: 4, JY: 1, Side: 40, Steps: 1},
			[]*cluster.Host{host(cluster.HP715, 0), host(cluster.HP715, 1), host(cluster.HP720, 2), host(cluster.HP710, 3)}},
		{"(5x4) lb2d wide", farm.JobSpec{ID: "wide", Method: "lb2d", JX: 5, JY: 4, Side: 40, Steps: 1},
			perf.PaperHosts(20)}, // 16x 715 + 4x 720
		{"(2x1x1) lb3d box", farm.JobSpec{ID: "box", Method: "lb3d", JX: 2, JY: 1, JZ: 1, Side: 25, Steps: 1},
			[]*cluster.Host{host(cluster.HP715, 0), host(cluster.HP710, 1)}},
	}

	fmt.Fprintf(w, "%-18s %-9s %14s %14s %10s\n", "job", "decomp", "compute s/step", "perf s/step", "imbalance")
	perfTimer := farm.PerfTimer(perf.Ethernet)
	for _, tc := range cases {
		wsh, err := farm.WeightedShape(tc.spec, tc.hosts)
		if err != nil {
			return err
		}
		row := func(label string, sh decomp.Shape) (compute, imb float64, err error) {
			if compute, err = farm.ComputeTimer(tc.spec, sh, tc.hosts); err != nil {
				return 0, 0, err
			}
			net, err := perfTimer(tc.spec, sh, tc.hosts)
			if err != nil {
				return 0, 0, err
			}
			if imb, err = farm.Imbalance(tc.spec, sh, tc.hosts); err != nil {
				return 0, 0, err
			}
			fmt.Fprintf(w, "%-18s %-9s %14.4f %14.4f %10.3f\n", tc.name, label, compute, net, imb)
			return compute, imb, nil
		}
		uniSec, uniImb, err := row("uniform", decomp.Shape{})
		if err != nil {
			return err
		}
		wSec, wImb, err := row("weighted", wsh)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s compute speedup %.3fx\n", "", uniSec/wSec)

		// The gates: weighting must strictly beat the uniform split on
		// every mixed placement and land near perfect balance.
		if !(wSec < uniSec) {
			return fmt.Errorf("REGRESSION: weighted step %.6f not strictly below uniform %.6f for %s", wSec, uniSec, tc.name)
		}
		if !(wImb < uniImb) {
			return fmt.Errorf("REGRESSION: weighted imbalance %.4f not below uniform %.4f for %s", wImb, uniImb, tc.name)
		}
		if wImb > 1.10 {
			return fmt.Errorf("REGRESSION: weighted imbalance %.4f above the 1.10 ceiling for %s", wImb, tc.name)
		}
	}

	fmt.Fprintln(w, "\nfarm replay on the paper pool (seed 1, FIFO), same trace priced")
	fmt.Fprintln(w, "uniform vs weighted (jobs on mixed-model reservations benefit):")
	fmt.Fprintf(w, "\n%-10s %12s %12s %12s %9s %15s\n",
		"pricing", "makespan", "mean wait", "util", "weighted", "imbalance (max)")
	var makespans []time.Duration // uniform, weighted
	for i, timer := range []farm.StepTimer{uniformPricing, nil} {
		sum, err := farm.Replay(quietPaperPool(), farm.FIFO, 1, timer, farmMix())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %12s %12s %12.3f %9d %15.3f\n",
			[]string{"uniform", "weighted"}[i], sum.Makespan.Round(time.Second), sum.MeanWait.Round(time.Second),
			sum.Utilization, sum.Weighted, sum.MaxImbalance)
		makespans = append(makespans, sum.Makespan)
	}
	if makespans[1] > makespans[0] {
		return fmt.Errorf("REGRESSION: weighted pricing lengthened the farm makespan (%v > %v)", makespans[1], makespans[0])
	}

	fmt.Fprintln(w, "\nweighted spans keep subregions lattice-aligned, so the halo-exchange")
	fmt.Fprintln(w, "topology — and the bitwise reproducibility guarantees — are unchanged;")
	fmt.Fprintln(w, "equal-speed pools reproduce the uniform decomposition bit for bit.")
	return nil
}
