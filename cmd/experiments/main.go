// Command experiments regenerates every table and figure of the paper's
// evaluation (sections 7-8) from this reproduction's performance plane:
// the virtual HP-workstation pool, the shared-bus Ethernet model and the
// closed-form efficiency model. Absolute times are the calibrated 1994
// constants (39,132 nodes/s per 715/50, 10 Mbps bus); the shapes are the
// experiment. Beside them run the section-2 geometry, the section-6/7
// convergence sweep and the farm scenes built on top of the paper.
//
// Usage:
//
//	go run ./cmd/experiments              # everything, in table order
//	go run ./cmd/experiments -exp=fig5    # one experiment
//	go run ./cmd/experiments -list        # the names, sorted
//
// The experiments table below is the one list of entries; DESIGN.md's
// per-experiment index carries the same names and sources. Entries with
// a pass/fail gate (crash, hetero, sweep, autoscale, convergence,
// acoustics) return the failure as an error and the command exits 1;
// `go test ./cmd/experiments` runs every entry.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/decomp"
	"repro/internal/fd"
	"repro/internal/fluid"
	"repro/internal/lbm"
	"repro/internal/perf"
	"repro/internal/viz"
)

// experiment is one entry: its -exp name, the paper artifact it
// reproduces, and the function writing it.
type experiment struct {
	name, source string
	run          func(w io.Writer) error
}

// experiments is in the order a bare run prints them.
var experiments = []experiment{
	{"fig2", "Section 2, figures 1-2: flue-pipe geometry and its decomposition", fig2},
	{"speed-table", "Section 7 workstation speed table", speedTable},
	{"mtable", "Section 8 decomposition geometry constant m", mTable},
	{"fig5", "Figure 5: 2D LB efficiency vs subregion side", seriesTable(
		"Figure 5: 2D LB efficiency vs sqrt(N)", func() ([]perf.Series, error) { return perf.FigEfficiency2D(perf.LB2D) }, "")},
	{"fig6", "Figure 6: 2D LB speedup vs subregion side", seriesTable(
		"Figure 6: 2D LB speedup vs sqrt(N)", func() ([]perf.Series, error) { return perf.FigSpeedup2D(perf.LB2D) }, "")},
	{"fig7", "Figure 7: 2D FD efficiency vs subregion side", seriesTable(
		"Figure 7: 2D FD efficiency vs sqrt(N)", func() ([]perf.Series, error) { return perf.FigEfficiency2D(perf.FD2D) }, "")},
	{"fig8", "Figure 8: 2D FD speedup vs subregion side", seriesTable(
		"Figure 8: 2D FD speedup vs sqrt(N)", func() ([]perf.Series, error) { return perf.FigSpeedup2D(perf.FD2D) }, "")},
	{"fig9", "Figure 9: efficiency vs P, 2D scales and 3D collapses on the bus", seriesTable(
		"Figure 9: efficiency vs P — 2D scales, 3D collapses on the shared bus", perf.Fig9, "")},
	{"fig10", "Figure 10: 3D LB efficiency vs subregion side", seriesTable(
		"Figure 10: 3D LB efficiency vs subregion side", perf.Fig10, "")},
	{"fig11", "Figure 11: 3D LB speedup vs total problem size", fig11},
	{"fig12", "Figure 12: theoretical 2D efficiency (equation 20)", seriesTable(
		"Figure 12: theoretical 2D efficiency (eq. 20), Ucalc/Vcom = 2/3", func() ([]perf.Series, error) { return perf.Fig12(), nil }, "")},
	{"fig13", "Figure 13: theoretical efficiency vs P (equations 20-21)", seriesTable(
		"Figure 13: theoretical efficiency vs P (eqs. 20-21)", func() ([]perf.Series, error) { return perf.Fig13(), nil }, "")},
	{"ablation", "Appendix C: FCFS vs strict-order communication", ablation},
	{"migration", "Section 5.1 migration cost", migration},
	{"convergence", "Sections 6-7: both solvers vs exact Hagen-Poiseuille", convergence},
	{"acoustics", "Section 6, equation 4", acoustics},
	{"networks", "Conclusion: switched/FDDI/ATM outlook", seriesTable(
		"Conclusion outlook: 3D (P x 1 x 1, 25^3/proc) on future networks", perf.FutureNetworks,
		"\nswitched/FDDI/ATM fabrics lift the 3D efficiency the shared bus\ndestroys - the paper's closing prediction, quantified.\n")},
	{"balancing", "Section 1.1: migration vs dynamic allocation", balancing},
	{"farm", "Beyond the paper: multi-job scheduling on the pool", farmExp},
	{"reclaim", "Beyond the paper: online farm under a reclaim storm", reclaimStorm},
	{"crash", "Beyond the paper: coordinator crash recovery from a durable checkpoint", crashRecovery},
	{"hetero", "Beyond the paper: speed-weighted decomposition for the mixed-model pool", hetero},
	{"sweep", "Beyond the paper: scenario sweep with byte-identical trace verify", sweep},
	{"autoscale", "Beyond the paper: malleable jobs under a supply/demand control loop", autoscaleExp},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "print the available experiment names (sorted) and exit")
	flag.Parse()

	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	if *list {
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		if err := e.run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s all\n", *exp, strings.Join(names, " "))
		os.Exit(2)
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n==== %s ====\n\n", title)
}

// speedTable reprints the section-7 workstation speed table (the paper's
// measured calibration, which the virtual cluster embeds) and measures the
// actual speed of this reproduction's Go solvers on the current machine
// for comparison.
func speedTable(w io.Writer) error {
	header(w, "Section 7 speed table: relative speeds (1.0 = 39,132 fluid nodes/s)")
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "method", "715/50", "710", "720")
	for _, m := range []string{"lb2d", "lb3d", "fd2d", "fd3d"} {
		fmt.Fprintf(w, "%-8s %10.2f %10.2f %10.2f\n", m,
			cluster.HP715.SpeedFactor(m), cluster.HP710.SpeedFactor(m), cluster.HP720.SpeedFactor(m))
	}
	fmt.Fprintln(w, "\nthis machine's Go solvers (fluid nodes integrated per second):")
	fmt.Fprintf(w, "%-8s %14s %14s\n", "method", "nodes/s", "vs 715/50")
	for _, m := range []string{"lb2d", "fd2d", "lb3d", "fd3d"} {
		sp, err := measureSolver(m)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %14.0f %13.1fx\n", m, sp, sp/(cluster.BaseNodesPerSecond*cluster.HP715.SpeedFactor(m)))
	}
	return nil
}

// measureSolver times a short serial run of a solver and returns nodes/s.
func measureSolver(method string) (float64, error) {
	par := fluid.DefaultParams()
	par.Nu = 0.05
	par.Eps = 0.01
	const steps, side2, side3 = 50, 128, 24
	m2, m3 := fluid.ChannelMask2D(side2, side2), fluid.ChannelMask3D(side3, side3, side3)
	at2 := func(x, y int) fluid.CellType { return m2.At(x, y) }
	at3 := func(x, y, z int) fluid.CellType { return m3.At(x, y, z) }
	var step func()
	var err error
	switch method {
	case "lb2d":
		s, e := lbm.NewSolver2D(side2, side2, par, at2)
		step, err = func() { s.StepSerial(true, false) }, e
	case "fd2d":
		s, e := fd.NewSolver2D(side2, side2, par, at2)
		step, err = func() { s.StepSerial(true, false) }, e
	case "lb3d":
		s, e := lbm.NewSolver3D(side3, side3, side3, par, at3)
		step, err = func() { s.StepSerial(true, false, true) }, e
	case "fd3d":
		s, e := fd.NewSolver3D(side3, side3, side3, par, at3)
		step, err = func() { s.StepSerial(true, false, true) }, e
	}
	if err != nil {
		return 0, err
	}
	nodes := side2 * side2
	if strings.HasSuffix(method, "3d") {
		nodes = side3 * side3 * side3
	}
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		step()
	}
	return float64(steps) * float64(nodes) / time.Since(t0).Seconds(), nil
}

func mTable(w io.Writer) error {
	header(w, "Section 8 m table: decomposition geometry constant")
	fmt.Fprintf(w, "%-10s %10s %12s %12s\n", "decomp", "paper m", "max sides", "mean sides")
	for _, c := range []struct{ jx, jy int }{{7, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 4}} {
		d, err := decomp.New2D(c.jx, c.jy, 40*c.jx, 40*c.jy, decomp.Star)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("(%dx%d)", c.jx, c.jy)
		if c.jy == 1 {
			label = "(Px1)"
		}
		fmt.Fprintf(w, "%-10s %10d %12d %12.2f\n", label, d.PaperM(), d.SurfaceFactor(), d.MeanSideCount())
	}
	return nil
}

// seriesTable returns an entry that prints the series gen produces as
// one table under a header, followed by footer.
func seriesTable(title string, gen func() ([]perf.Series, error), footer string) func(io.Writer) error {
	return func(w io.Writer) error {
		header(w, title)
		series, err := gen()
		if err != nil {
			return err
		}
		labels := make([]string, len(series))
		xs := make([]float64, len(series[0].Points))
		ys := make([][]float64, len(series))
		for i, s := range series {
			labels[i] = s.Label
			ys[i] = make([]float64, len(s.Points))
			for j, p := range s.Points {
				if i == 0 {
					xs[j] = p.X
				}
				ys[i][j] = p.Y
			}
		}
		fmt.Fprint(w, viz.SeriesTable("x", labels, xs, ys), footer)
		return nil
	}
}

func fig11(w io.Writer) error {
	header(w, "Figure 11: 3D LB speedup vs total problem size (network-bound)")
	series, err := perf.Fig11()
	if err != nil {
		return err
	}
	for _, s := range series {
		fmt.Fprintf(w, "%s\n", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(w, "  total nodes %9.0f  speedup %6.2f\n", p.X, p.Y)
		}
	}
	return nil
}

func ablation(w io.Writer) error {
	header(w, "Appendix C ablation: FCFS vs strict-order communication, (10x1) chain")
	fmt.Fprintf(w, "%-12s %14s %14s %10s\n", "spike prob", "FCFS s/step", "strict s/step", "strict/FCFS")
	for _, sp := range []float64{0, 0.05, 0.1, 0.2} {
		fcfs, strict, err := perf.AblationFCFS(10, 120, sp)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12.2f %14.4f %14.4f %10.3f\n", sp, fcfs, strict, strict/fcfs)
	}
	fmt.Fprintln(w, "\nwith time-sharing delays, strict ordering amplifies them to global")
	fmt.Fprintln(w, "delays; asynchronous FCFS achieves better performance overall.")
	return nil
}

func migration(w io.Writer) error {
	header(w, "Section 5.1 migration cost")
	fmt.Fprintf(w, "one ~30 s migration every ~45 min: %.2f%% of run time\n", 100*perf.MigrationCost())
	fmt.Fprintf(w, "efficiency 0.80 becomes %.3f — insignificant, as the paper states\n",
		0.80*(1-perf.MigrationCost()))
	return nil
}

func balancing(w io.Writer) error {
	header(w, "Section 1.1: fixed subregions + migration vs dynamic load allocation")
	fmt.Fprintf(w, "%-12s %10s %10s %10s\n", "slow factor", "ignore", "migrate", "dynamic")
	for _, sf := range []float64{0.75, 0.5, 0.25} {
		ig, mig, dyn, err := perf.DynamicVsMigration(10, 120, 5000, sf)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12.2f %10.3f %10.3f %10.3f\n", sf, ig, mig, dyn)
	}
	fmt.Fprintln(w, "\nfor static-geometry flow problems, migrating off the slow host beats")
	fmt.Fprintln(w, "resizing subregions around it - the paper's section-1.1 position.")
	return nil
}
