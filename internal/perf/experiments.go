package perf

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/decomp"
	"repro/internal/model"
	"repro/internal/netsim"
)

// Point is one measurement of a figure's series.
type Point struct {
	X, Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// MeasureSteps is the paper's timing window: "averaging over 20
// consecutive integration steps".
const MeasureSteps = 20

// Measure applies the section-7 protocol to a pattern: time 20
// consecutive steps. The paper repeats the measurement twice and keeps
// the better number, to dodge moments when an FTP loads the Ethernet.
// The engine is deterministic and nothing else loads its network, so a
// repetition gives the same number and one run is the best of any number.
func Measure(workers []WorkerSpec, net netsim.Network) (float64, netsim.Stats, error) {
	res, err := Run(&Spec{Workers: workers, Steps: MeasureSteps, Net: net})
	if err != nil {
		return 0, netsim.Stats{}, err
	}
	return res.PerStepSec, res.Net, nil
}

// Ethernet returns a fresh shared-bus 10 Mbps network, the paper's
// testbed.
func Ethernet() netsim.Network { return netsim.DefaultEthernet() }

// PaperHosts selects p hosts from the paper's 25-workstation pool with the
// section-4.1 policy: 715 models first, then 720s, then 710s.
func PaperHosts(p int) []*cluster.Host {
	c := cluster.NewPaperCluster()
	c.Advance(30 * time.Minute) // quiet pool, users idle
	return c.SelectFree(p, cluster.DefaultPolicy())
}

// Efficiency measures parallel efficiency for a (jx x jy x jz)
// decomposition with subregions of side l, following the paper: the
// problem grows with the decomposition (grid = l*jx by l*jy by l*jz),
// hosts come from the paper pool, and T_1 is the 715/50 integrating the
// whole grid. jz = 0 is a planar lattice, one plane thick.
func Efficiency(jx, jy, jz, l int, method string, net netsim.Network) (f float64, stats netsim.Stats, err error) {
	var d *decomp.Decomp
	if jz == 0 {
		d, err = decomp.New2D(jx, jy, l*jx, l*jy, decomp.StencilFor(method))
	} else {
		d, err = decomp.New3D(jx, jy, jz, l*jx, l*jy, l*jz)
	}
	if err != nil {
		return 0, netsim.Stats{}, err
	}
	specs, err := Build(d, method, PaperHosts(d.P()))
	if err != nil {
		return 0, netsim.Stats{}, err
	}
	perStep, stats, err := Measure(specs, net)
	if err != nil {
		return 0, netsim.Stats{}, err
	}
	t1 := SerialTime(d.GX*d.GY*d.GZ, method)
	return t1 / (float64(d.P()) * perStep), stats, nil
}

// fig5Decomps are the decompositions of figures 5-8.
var fig5Decomps = []struct {
	jx, jy int
	label  string
}{
	{2, 2, "(2x2)"},
	{3, 3, "(3x3)"},
	{4, 4, "(4x4)"},
	{5, 4, "(5x4)"},
}

// fig5Sides are the subregion side lengths swept in figures 5-8.
var fig5Sides = []int{20, 30, 50, 75, 100, 125, 150, 200, 250, 300}

// FigEfficiency2D regenerates figure 5 (method lb2d) or figure 7 (fd2d):
// efficiency versus sqrt(N) for the four decompositions.
func FigEfficiency2D(method string) ([]Series, error) {
	var out []Series
	for _, dc := range fig5Decomps {
		s := Series{Label: dc.label}
		for _, l := range fig5Sides {
			f, _, err := Efficiency(dc.jx, dc.jy, 0, l, method, Ethernet())
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: float64(l), Y: f})
		}
		out = append(out, s)
	}
	return out, nil
}

// FigSpeedup2D regenerates figure 6 (lb2d) or figure 8 (fd2d): speedup
// versus sqrt(N).
func FigSpeedup2D(method string) ([]Series, error) {
	eff, err := FigEfficiency2D(method)
	if err != nil {
		return nil, err
	}
	for i, dc := range fig5Decomps {
		for j := range eff[i].Points {
			eff[i].Points[j].Y = model.Speedup(eff[i].Points[j].Y, dc.jx*dc.jy)
		}
	}
	return eff, nil
}

// Fig9 regenerates figure 9: efficiency versus P for a scaled problem,
// 2D (P x 1) at 120^2 nodes per processor versus 3D (P x 1 x 1) at 25^3,
// both lattice Boltzmann.
func Fig9() ([]Series, error) {
	ps := []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	s2 := Series{Label: "2D (P x 1), 120^2 per processor"}
	s3 := Series{Label: "3D (P x 1 x 1), 25^3 per processor"}
	for _, p := range ps {
		f2, _, err := Efficiency(p, 1, 0, 120, LB2D, Ethernet())
		if err != nil {
			return nil, err
		}
		s2.Points = append(s2.Points, Point{X: float64(p), Y: f2})
		f3, _, err := Efficiency(p, 1, 1, 25, LB3D, Ethernet())
		if err != nil {
			return nil, err
		}
		s3.Points = append(s3.Points, Point{X: float64(p), Y: f3})
	}
	return []Series{s2, s3}, nil
}

// fig10Decomps are the 3D decompositions of figures 10-11.
var fig10Decomps = []struct {
	jx, jy, jz int
	label      string
}{
	{2, 2, 2, "(2x2x2)"},
	{3, 2, 2, "(3x2x2)"},
	{4, 2, 2, "(4x2x2)"},
	{3, 3, 2, "(3x3x2)"},
}

var fig10Sides = []int{10, 15, 20, 25, 30, 35, 40}

// Fig10 regenerates figure 10: 3D lattice Boltzmann efficiency versus
// subregion side for several decompositions.
func Fig10() ([]Series, error) {
	var out []Series
	for _, dc := range fig10Decomps {
		s := Series{Label: dc.label}
		for _, l := range fig10Sides {
			f, _, err := Efficiency(dc.jx, dc.jy, dc.jz, l, LB3D, Ethernet())
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: float64(l), Y: f})
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig11 regenerates figure 11: 3D speedup versus total problem size; finer
// decompositions do not help because the network is the bottleneck.
// It re-plots figure 10's points: speedup is efficiency times P.
func Fig11() ([]Series, error) {
	out, err := Fig10()
	if err != nil {
		return nil, err
	}
	for i, dc := range fig10Decomps {
		p := float64(dc.jx * dc.jy * dc.jz)
		for j, l := range fig10Sides {
			pt := &out[i].Points[j]
			pt.X, pt.Y = p*float64(l*l*l), pt.Y*p
		}
	}
	return out, nil
}

// Fig12 regenerates figure 12: the theoretical 2D shared-bus efficiency of
// equation 20 versus sqrt(N) at Ucalc/Vcom = 2/3 for (P,m) = (4,2), (9,3),
// (16,4), (20,4).
func Fig12() []Series {
	cfg := []struct {
		p, m  int
		label string
	}{
		{4, 2, "P=4, m=2"},
		{9, 3, "P=9, m=3"},
		{16, 4, "P=16, m=4"},
		{20, 4, "P=20, m=4"},
	}
	var out []Series
	for _, c := range cfg {
		s := Series{Label: c.label}
		for _, l := range fig5Sides {
			n := float64(l * l)
			s.Points = append(s.Points, Point{
				X: float64(l),
				Y: model.SharedBusEfficiency2D(n, c.p, c.m, model.PaperCalibration),
			})
		}
		out = append(out, s)
	}
	return out
}

// Fig13 regenerates figure 13: theoretical efficiency versus P; 2D with
// N = 125^2, m = 2 (equation 20) against 3D with N = 25^3, m = 2
// (equation 21).
func Fig13() []Series {
	s2 := Series{Label: "2D model, N=125^2, m=2"}
	s3 := Series{Label: "3D model, N=25^3, m=2"}
	for p := 2; p <= 20; p++ {
		s2.Points = append(s2.Points, Point{
			X: float64(p),
			Y: model.SharedBusEfficiency2D(125*125, p, 2, model.PaperCalibration),
		})
		s3.Points = append(s3.Points, Point{
			X: float64(p),
			Y: model.SharedBusEfficiency3D(25*25*25, p, 2, model.PaperCalibration),
		})
	}
	return []Series{s2, s3}
}

// AblationFCFS compares first-come-first-served against strict-order
// communication (appendix C) on a (P x 1) chain under time-sharing delay
// spikes: with probability spikeProb a process's step takes twice as long
// ("small delays are inevitable in time-sharing UNIX systems, and strict
// ordering amplifies them to global delays"). Identical delay realizations
// are injected in both modes.
func AblationFCFS(p, l int, spikeProb float64) (fcfs, strict float64, err error) {
	d, err := decomp.New2D(p, 1, l*p, l, decomp.Full)
	if err != nil {
		return 0, 0, err
	}
	specs, err := Build(d, LB2D, PaperHosts(p))
	if err != nil {
		return 0, 0, err
	}
	run := func(strictOrder bool) (float64, error) {
		res, err := Run(&Spec{
			Workers:     specs,
			Steps:       5 * MeasureSteps, // long enough for pipeline stalls to accumulate
			Net:         netsim.DefaultEthernet(),
			SpikeProb:   spikeProb,
			Seed:        7,
			StrictOrder: strictOrder,
		})
		if err != nil {
			return 0, err
		}
		return res.PerStepSec, nil
	}
	if fcfs, err = run(false); err != nil {
		return 0, 0, err
	}
	if strict, err = run(true); err != nil {
		return 0, 0, err
	}
	return fcfs, strict, nil
}

// MigrationCost quantifies section 5.1: with one ~30 s migration every
// ~45 minutes, the fraction of lost time.
func MigrationCost() float64 {
	return model.MigrationOverhead(30, 45*60)
}

// FutureNetworks implements the paper's outlook ("it is expected that new
// technologies in the near future such as Ethernet switches, FDDI and ATM
// networks will make practical three-dimensional simulations of fluid
// dynamics on a cluster of workstations"): the figure-9 3D scaled problem,
// (P x 1 x 1) at 25^3 nodes per processor, on the shared bus versus those
// three fabrics.
func FutureNetworks() ([]Series, error) {
	nets := []struct {
		label string
		mk    func() netsim.Network
	}{
		{"shared 10 Mbps Ethernet", Ethernet},
		{"switched 10 Mbps Ethernet", func() netsim.Network { return netsim.SwitchedEthernet() }},
		{"FDDI 100 Mbps", func() netsim.Network { return netsim.FDDI() }},
		{"ATM 155 Mbps", func() netsim.Network { return netsim.ATM() }},
	}
	ps := []int{2, 4, 8, 12, 16, 20}
	var out []Series
	for _, n := range nets {
		s := Series{Label: n.label}
		for _, p := range ps {
			f, _, err := Efficiency(p, 1, 1, 25, LB3D, n.mk())
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: float64(p), Y: f})
		}
		out = append(out, s)
	}
	return out, nil
}

// DynamicVsMigration compares the paper's choice (fixed-size subregions
// plus automatic migration, section 1.1) against the alternative it cites,
// dynamic allocation of processor workload (Cap & Strumpen): when one host
// slows to a fraction of its speed,
//
//   - "ignore": keep computing; every step waits for the slow host;
//   - "migrate": pay a one-off downtime (the ~30 s migration), then run at
//     full speed on a fresh host;
//   - "dynamic": repartition so the slow host gets proportionally fewer
//     nodes; all hosts stay busy, but the whole problem is redistributed
//     (a full state's worth of network traffic) and the geometry must be
//     re-balanced.
//
// It returns the effective efficiency of each policy over a horizon of
// `steps` integration steps of a (P x 1) LB chain with side-l subregions.
func DynamicVsMigration(p, l, steps int, slowFactor float64) (ignore, migrate, dynamic float64, err error) {
	if slowFactor <= 0 || slowFactor > 1 {
		return 0, 0, 0, fmt.Errorf("perf: slow factor %v outside (0, 1]", slowFactor)
	}
	d, err := decomp.New2D(p, 1, l*p, l, decomp.Full)
	if err != nil {
		return 0, 0, 0, err
	}
	hosts := PaperHosts(p)
	specs, err := Build(d, LB2D, hosts)
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := SerialTime(d.GX*d.GY, LB2D)
	perfOf := func(ws []WorkerSpec) (float64, error) {
		per, _, err := Measure(ws, Ethernet())
		if err != nil {
			return 0, err
		}
		return t1 / (float64(p) * per), nil
	}

	// Ignore: host 0 computes 1/slowFactor slower.
	slowed := make([]WorkerSpec, len(specs))
	copy(slowed, specs)
	slowed[0].StepComputeSec = specs[0].StepComputeSec / slowFactor
	if ignore, err = perfOf(slowed); err != nil {
		return 0, 0, 0, err
	}

	// Migrate: full speed after a 30-second downtime amortized over the
	// horizon (the paper's measured migration cost).
	healthy, err := perfOf(specs)
	if err != nil {
		return 0, 0, 0, err
	}
	horizon := float64(steps) * t1 / float64(p) / healthy
	migrate = healthy * horizon / (horizon + 30.0)

	// Dynamic: resize subregions so per-host time equalizes. Host 0 at
	// speed s gets a share s/(P-1+s) of the rows; the repartition ships
	// the whole state once (totalNodes * 12 fields * 8 bytes over the
	// bus) and this cost is amortized over the horizon.
	share := slowFactor / (float64(p-1) + slowFactor)
	resized := make([]WorkerSpec, len(specs))
	copy(resized, specs)
	totalNodes := float64(d.GX * d.GY)
	slowNodes := totalNodes * share
	fastNodes := (totalNodes - slowNodes) / float64(p-1)
	resized[0].StepComputeSec = slowNodes / (hosts[0].Speed(LB2D) * slowFactor)
	for i := 1; i < p; i++ {
		resized[i].StepComputeSec = fastNodes / hosts[i].Speed(LB2D)
	}
	dynEff, err := perfOf(resized)
	if err != nil {
		return 0, 0, 0, err
	}
	repartition := totalNodes * 12 * 8 * 8 / 10e6 // seconds on the bus
	horizonDyn := float64(steps) * t1 / float64(p) / dynEff
	dynamic = dynEff * horizonDyn / (horizonDyn + repartition)
	return ignore, migrate, dynamic, nil
}
