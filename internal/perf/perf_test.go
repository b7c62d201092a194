package perf

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/decomp"
	"repro/internal/netsim"
)

// freeBus returns an effectively infinite network: communication costs
// nothing, so measured efficiency must be bounded only by host speeds.
func freeBus() netsim.Network {
	return &netsim.Bus{BandwidthBps: 1e15, OverheadSec: 0, FrameBytes: 0}
}

func TestSingleWorkerTiming(t *testing.T) {
	spec := &Spec{
		Workers: []WorkerSpec{{
			Rank:           0,
			StepComputeSec: 0.25,
			PhaseFrac:      []float64{1},
			Out:            [][]OutMsg{nil},
			Expect:         []int{0},
		}},
		Steps: 4,
		Net:   freeBus(),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PerStepSec-0.25) > 1e-9 {
		t.Errorf("per-step %v, want 0.25", res.PerStepSec)
	}
}

func TestTwoWorkerExchangeBlocking(t *testing.T) {
	// Worker 1 is twice as slow; worker 0 must wait for its message, so
	// both advance at worker 1's pace.
	mk := func(rank int, compute float64, peer int) WorkerSpec {
		return WorkerSpec{
			Rank:           rank,
			StepComputeSec: compute,
			PhaseFrac:      []float64{1},
			Out:            [][]OutMsg{{{Dst: peer, Bytes: 0}}},
			Expect:         []int{1},
		}
	}
	spec := &Spec{
		Workers: []WorkerSpec{mk(0, 0.1, 1), mk(1, 0.2, 0)},
		Steps:   10,
		Net:     freeBus(),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PerStepSec-0.2) > 1e-6 {
		t.Errorf("per-step %v, want 0.2 (slowest worker)", res.PerStepSec)
	}
}

func TestBusSerializationCouplesWorkers(t *testing.T) {
	// Two isolated workers (no exchanges) but large broadcast messages on
	// a slow bus: per-step time grows beyond pure compute when messages
	// from both workers share the bus.
	bus := &netsim.Bus{BandwidthBps: 1e6, OverheadSec: 0, FrameBytes: 0}
	mk := func(rank, peer int) WorkerSpec {
		return WorkerSpec{
			Rank:           rank,
			StepComputeSec: 0.01,
			PhaseFrac:      []float64{1},
			Out:            [][]OutMsg{{{Dst: peer, Bytes: 12500}}}, // 0.1 s each
			Expect:         []int{1},
		}
	}
	spec := &Spec{Workers: []WorkerSpec{mk(0, 1), mk(1, 0)}, Steps: 5, Net: bus}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Two 0.1 s messages per step on one bus: at least 0.2 s per step.
	if res.PerStepSec < 0.19 {
		t.Errorf("per-step %v; bus serialization not enforced", res.PerStepSec)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(&Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	bad := &Spec{
		Workers: []WorkerSpec{{
			Rank: 0, StepComputeSec: 1,
			PhaseFrac: []float64{0.5, 0.2}, // sums to 0.7
			Out:       [][]OutMsg{nil, nil},
			Expect:    []int{0, 0},
		}},
		Steps: 1,
		Net:   freeBus(),
	}
	if _, err := Run(bad); err == nil {
		t.Error("bad phase fractions accepted")
	}
}

func TestBuild2DPattern(t *testing.T) {
	d, err := decomp.New2D(3, 3, 90, 90, decomp.Full)
	if err != nil {
		t.Fatal(err)
	}
	hosts := Hosts715(9)
	specs, err := Build(d, LB2D, hosts)
	if err != nil {
		t.Fatal(err)
	}
	// The centre subregion has 8 neighbours: 4 sides + 4 corners.
	center := specs[d.Sub(1, 1, 0).Rank]
	if len(center.Out[0]) != 8 || center.Expect[0] != 8 {
		t.Errorf("centre has %d out, %d expected; want 8, 8", len(center.Out[0]), center.Expect[0])
	}
	// Side messages carry (3L-2)*8 bytes, corners 8 bytes.
	var sides, corners int
	for _, m := range center.Out[0] {
		switch m.Bytes {
		case (3*30 - 2) * 8:
			sides++
		case 8:
			corners++
		}
	}
	if sides != 4 || corners != 4 {
		t.Errorf("sides %d corners %d, want 4 and 4", sides, corners)
	}
	// Compute time: 900 nodes at the 715 speed.
	want := 900.0 / (cluster.BaseNodesPerSecond * 1.0)
	if math.Abs(center.StepComputeSec-want) > 1e-12 {
		t.Errorf("compute %v, want %v", center.StepComputeSec, want)
	}

	// FD: star neighbours only, two messages per neighbour.
	fdSpecs, err := Build(d, FD2D, hosts)
	if err != nil {
		t.Fatal(err)
	}
	fc := fdSpecs[d.Sub(1, 1, 0).Rank]
	if len(fc.Out[0]) != 4 || len(fc.Out[1]) != 4 || len(fc.Out[2]) != 0 {
		t.Errorf("FD message counts %d/%d/%d, want 4/4/0",
			len(fc.Out[0]), len(fc.Out[1]), len(fc.Out[2]))
	}
	if fc.Out[0][0].Bytes != 2*30*8 || fc.Out[1][0].Bytes != 30*8 {
		t.Errorf("FD message sizes %d, %d", fc.Out[0][0].Bytes, fc.Out[1][0].Bytes)
	}
}

func TestBuild3DPattern(t *testing.T) {
	d, err := decomp.New3D(2, 1, 1, 50, 25, 25)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := Build(d, LB3D, Hosts715(2))
	if err != nil {
		t.Fatal(err)
	}
	// Pencil decomposition: one x-face neighbour, 5 populations per node.
	w := specs[0]
	if len(w.Out[0]) != 1 || w.Out[0][0].Bytes != 5*25*25*8 {
		t.Errorf("3D LB x-face message wrong: %+v", w.Out[0])
	}
	if len(w.Out[1]) != 0 && len(w.Out[2]) != 0 {
		t.Error("pencil decomposition should have no y/z messages")
	}
}

func TestEfficiencyPerfectNetwork(t *testing.T) {
	// With free communication and homogeneous 715 hosts, efficiency ~1.
	d, _ := decomp.New2D(4, 4, 400, 400, decomp.Full)
	specs, err := Build(d, LB2D, Hosts715(16))
	if err != nil {
		t.Fatal(err)
	}
	perStep, _, err := Measure(specs, freeBus())
	if err != nil {
		t.Fatal(err)
	}
	t1 := SerialTime(400*400, LB2D)
	f := t1 / (16 * perStep)
	if math.Abs(f-1) > 1e-6 {
		t.Errorf("perfect-network efficiency %v, want 1", f)
	}
}

func TestEfficiencyShapes(t *testing.T) {
	// The headline result: 2D efficiency around 80% with 20 workstations
	// at production subregion sizes (the paper's abstract).
	f20, _, err := Efficiency(5, 4, 0, 200, LB2D, Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	if f20 < 0.70 || f20 > 0.95 {
		t.Errorf("(5x4) L=200 efficiency %v, want ~0.8", f20)
	}
	// Efficiency grows with subregion size (figure 5).
	fSmall, _, err := Efficiency(5, 4, 0, 50, LB2D, Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	if fSmall >= f20 {
		t.Errorf("efficiency did not grow with N: %v vs %v", fSmall, f20)
	}
	// FD decays faster than LB at small subregions (figures 7 vs 5).
	fFD, _, err := Efficiency(5, 4, 0, 50, FD2D, Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	if fFD >= fSmall {
		t.Errorf("FD %v should fall below LB %v at small N", fFD, fSmall)
	}
	// 3D collapses harder than 2D at the same per-processor node count
	// (figure 9): 120^2 = 14400 vs 25^3 = 15625.
	f2d, _, err := Efficiency(16, 1, 0, 120, LB2D, Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	f3d, _, err := Efficiency(16, 1, 1, 25, LB3D, Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	if f3d >= f2d-0.1 {
		t.Errorf("3D efficiency %v should collapse well below 2D %v", f3d, f2d)
	}
}

func TestNetworkErrorsAppearIn3D(t *testing.T) {
	// The saturated 3D runs must show overload errors (the paper's
	// "frequent network errors because of excessive network traffic")
	// while comfortable 2D runs show none.
	_, st3, err := Efficiency(3, 3, 2, 25, LB3D, Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	if st3.Errors == 0 {
		t.Errorf("no network errors in the saturated 3D run: %+v", st3)
	}
	_, st2, err := Efficiency(4, 4, 0, 200, LB2D, Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Errors != 0 {
		t.Errorf("2D run reported network errors: %+v", st2)
	}
}

func TestStrictOrderAblation(t *testing.T) {
	// Appendix C: on a quiet cluster strict ordering is competitive (it
	// was designed to pipeline the bus), but with time-sharing delay
	// spikes FCFS wins.
	fcfsQ, strictQ, err := AblationFCFS(10, 120, 0)
	if err != nil {
		t.Fatal(err)
	}
	if strictQ > fcfsQ*1.05 {
		t.Errorf("quiet cluster: strict %v much worse than fcfs %v", strictQ, fcfsQ)
	}
	fcfsD, strictD, err := AblationFCFS(10, 120, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if strictD <= fcfsD {
		t.Errorf("delayed cluster: strict %v should exceed fcfs %v", strictD, fcfsD)
	}
}

func TestFigureGeneratorsProduceSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweeps are slow")
	}
	for name, gen := range map[string]func() ([]Series, error){
		"fig5":  func() ([]Series, error) { return FigEfficiency2D(LB2D) },
		"fig7":  func() ([]Series, error) { return FigEfficiency2D(FD2D) },
		"fig9":  Fig9,
		"fig10": Fig10,
		"fig11": Fig11,
	} {
		series, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(series) == 0 {
			t.Fatalf("%s: no series", name)
		}
		for _, s := range series {
			if len(s.Points) == 0 {
				t.Errorf("%s %q: empty series", name, s.Label)
			}
			for _, p := range s.Points {
				if p.Y < 0 || (p.Y > float64(25) /* speedup bound */) {
					t.Errorf("%s %q: implausible value %v", name, s.Label, p.Y)
				}
			}
		}
	}
	// Model figures are cheap and deterministic.
	if got := Fig12(); len(got) != 4 {
		t.Errorf("fig12 series = %d", len(got))
	}
	if got := Fig13(); len(got) != 2 {
		t.Errorf("fig13 series = %d", len(got))
	}
}

func TestMigrationCost(t *testing.T) {
	if c := MigrationCost(); c < 0.005 || c > 0.02 {
		t.Errorf("migration cost %v, want ~1%%", c)
	}
}

func TestFutureNetworksLiftThe3DCollapse(t *testing.T) {
	// The conclusion's prediction: at P = 16 the shared bus is deep in
	// collapse while switched Ethernet, FDDI and ATM keep the same 3D
	// problem efficient.
	series, err := FutureNetworks()
	if err != nil {
		t.Fatal(err)
	}
	at := func(s Series, p float64) float64 {
		for _, pt := range s.Points {
			if pt.X == p {
				return pt.Y
			}
		}
		t.Fatalf("series %q has no P=%v", s.Label, p)
		return 0
	}
	bus, sw, fddi, atm := at(series[0], 16), at(series[1], 16), at(series[2], 16), at(series[3], 16)
	if bus > 0.7 {
		t.Errorf("shared bus at P=16: %v, expected collapse below 0.7", bus)
	}
	if sw < bus+0.15 {
		t.Errorf("switched Ethernet %v should clearly beat the bus %v", sw, bus)
	}
	if fddi < 0.9 || atm < 0.9 {
		t.Errorf("FDDI %v / ATM %v should keep 3D efficient", fddi, atm)
	}
}

func TestDynamicVsMigration(t *testing.T) {
	ig, mig, dyn, err := DynamicVsMigration(10, 120, 5000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Ignoring a half-speed host halves throughput (everyone waits).
	if ig > 0.55 {
		t.Errorf("ignore policy %v, expected ~0.5", ig)
	}
	// Both remedies recover most of the loss, and for a static-geometry
	// problem migration is at least as good as dynamic repartitioning
	// (the paper's section-1.1 position).
	if mig < 0.85 || dyn < 0.8 {
		t.Errorf("remedies too weak: migrate %v dynamic %v", mig, dyn)
	}
	if mig < dyn {
		t.Errorf("migration %v should not lose to dynamic allocation %v", mig, dyn)
	}
	if _, _, _, err := DynamicVsMigration(10, 120, 5000, 1.5); err == nil {
		t.Error("slow factor > 1 accepted")
	}
}
