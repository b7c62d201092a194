package farm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
)

// mixedPool builds an idle pool with one host per model given, in order.
func mixedPool(models ...cluster.Model) *cluster.Cluster {
	c := &cluster.Cluster{}
	for i, m := range models {
		c.Hosts = append(c.Hosts, cluster.NewHost(fmt.Sprintf("mixed-%02d", i), m))
	}
	c.Advance(30 * time.Minute)
	return c
}

// uniformTimer prices every placement with the uniform (identical-spans)
// decomposition regardless of the job's chosen shape — the pre-weighting
// behaviour, kept for comparisons.
func uniformTimer(spec JobSpec, _ decomp.Shape, hosts []*cluster.Host) (float64, error) {
	return ComputeTimer(spec, decomp.Shape{}, hosts)
}

// TestWeightedBeatsUniformOnMixedPool is the tentpole acceptance check:
// on a mixed-model placement the speed-weighted shape prices a step
// strictly below the uniform split, and its load-imbalance ratio drops
// toward 1; with equal speeds the weighted shape is the uniform shape.
func TestWeightedBeatsUniformOnMixedPool(t *testing.T) {
	spec := JobSpec{ID: "w", Method: "lb2d", JX: 4, JY: 1, Side: 40, Steps: 1}
	hosts := []*cluster.Host{
		cluster.NewHost("a", cluster.HP715),
		cluster.NewHost("b", cluster.HP715),
		cluster.NewHost("c", cluster.HP720),
		cluster.NewHost("d", cluster.HP710),
	}
	w, err := WeightedShape(spec, hosts)
	if err != nil {
		t.Fatal(err)
	}
	uniSec, err := ComputeTimer(spec, decomp.Shape{}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	wSec, err := ComputeTimer(spec, w, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if !(wSec < uniSec) {
		t.Errorf("weighted step %v not strictly below uniform %v", wSec, uniSec)
	}
	uniImb, err := Imbalance(spec, decomp.Shape{}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	wImb, err := Imbalance(spec, w, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if !(uniImb > 1.1) {
		t.Errorf("uniform imbalance %v suspiciously low for a 715/710 mix", uniImb)
	}
	if !(wImb < uniImb) {
		t.Errorf("weighted imbalance %v not below uniform %v", wImb, uniImb)
	}
	if wImb < 1-1e-9 {
		t.Errorf("imbalance %v below 1 (faster than perfectly balanced)", wImb)
	}

	// 3D: a (2 x 1 x 1) box chain across a 715/710 pair.
	spec3 := JobSpec{ID: "w3", Method: "lb3d", JX: 2, JY: 1, JZ: 1, Side: 16, Steps: 1}
	hosts3 := []*cluster.Host{hosts[0], hosts[3]}
	w3, err := WeightedShape(spec3, hosts3)
	if err != nil {
		t.Fatal(err)
	}
	uni3, err := ComputeTimer(spec3, decomp.Shape{}, hosts3)
	if err != nil {
		t.Fatal(err)
	}
	wSec3, err := ComputeTimer(spec3, w3, hosts3)
	if err != nil {
		t.Fatal(err)
	}
	if !(wSec3 < uni3) {
		t.Errorf("3D weighted step %v not strictly below uniform %v", wSec3, uni3)
	}

	// Equal speeds: the weighted shape degenerates to the uniform one.
	same := []*cluster.Host{
		cluster.NewHost("e", cluster.HP715), cluster.NewHost("f", cluster.HP715),
		cluster.NewHost("g", cluster.HP715), cluster.NewHost("h", cluster.HP715),
	}
	eq, err := WeightedShape(spec, same)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Equal(uniformShape(spec)) {
		t.Errorf("equal-speed weighted shape %v differs from uniform %v", eq, uniformShape(spec))
	}
	s := newFarm(idlePool(), FIFO, 1)
	if sh, _, err := s.chooseShape(spec, same); err != nil || !sh.IsZero() {
		t.Errorf("chooseShape on equal speeds = %v, %v, want zero (uniform)", sh, err)
	}
	sh, sec, err := s.chooseShape(spec, hosts)
	if err != nil || sh.IsZero() {
		t.Errorf("chooseShape on the mixed pool stayed uniform (%v)", err)
	}
	// The returned price is the winning shape's own pricing, which
	// tryPlace reuses instead of re-running the timer.
	if want, err := s.timer(spec, sh, hosts); err != nil || sec != want {
		t.Errorf("chooseShape price %v, want the shape's own pricing %v (%v)", sec, want, err)
	}
	// A weighted price that is not finite and positive falls back to
	// uniform, as a timer error does.
	s.timer = func(spec JobSpec, sh decomp.Shape, hosts []*cluster.Host) (float64, error) {
		if !sh.IsZero() && !sh.Equal(uniformShape(spec)) {
			return math.NaN(), nil
		}
		return ComputeTimer(spec, sh, hosts)
	}
	if sh, _, err := s.chooseShape(spec, hosts); err != nil || !sh.IsZero() {
		t.Errorf("chooseShape with a NaN weighted price = %v, %v, want zero (uniform)", sh, err)
	}
}

// TestFarmRunsWeightedOnMixedPool: a chain job reserving a mixed-model
// pool gets a speed-weighted shape from the scheduler, finishes sooner
// than the same trace priced uniform, and reports its imbalance through
// the metrics plane.
func TestFarmRunsWeightedOnMixedPool(t *testing.T) {
	specs := []JobSpec{{ID: "chain", Method: "lb2d", JX: 4, JY: 1, Side: 40, Steps: 2000}}
	pool := func() *cluster.Cluster {
		return mixedPool(cluster.HP715, cluster.HP715, cluster.HP720, cluster.HP710)
	}

	weighted, err := Replay(pool(), FIFO, 1, nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := Replay(pool(), FIFO, 1, uniformTimer, specs)
	if err != nil {
		t.Fatal(err)
	}
	wj, uj := jobByID(t, weighted, "chain"), jobByID(t, uniform, "chain")
	if !wj.Weighted {
		t.Error("mixed-pool chain job not placed with a weighted shape")
	}
	if weighted.Weighted != 1 {
		t.Errorf("summary counts %d weighted jobs, want 1", weighted.Weighted)
	}
	if uj.Weighted || uniform.Weighted != 0 {
		t.Error("uniform-priced baseline chose a weighted shape (chooseShape must follow the farm's Timer)")
	}
	if !(wj.Done < uj.Done) {
		t.Errorf("weighted completion %v not before uniform %v", wj.Done, uj.Done)
	}
	if !(wj.Imbalance < uj.Imbalance) {
		t.Errorf("weighted imbalance %v not below the uniform split's %v", wj.Imbalance, uj.Imbalance)
	}
	if weighted.MaxImbalance != wj.Imbalance {
		t.Errorf("summary max imbalance %v != job's %v", weighted.MaxImbalance, wj.Imbalance)
	}
}

// TestEqualSpeedPoolBitIdenticalToUniform: on a homogeneous pool the
// weighted machinery must change nothing — the full farm trace (every
// job field and aggregate) is bit-identical to one priced with the
// uniform splitter, and no job is marked weighted.
func TestEqualSpeedPoolBitIdenticalToUniform(t *testing.T) {
	pool := func() *cluster.Cluster {
		c := &cluster.Cluster{}
		for i := 0; i < 25; i++ {
			c.Hosts = append(c.Hosts, cluster.NewHost(fmt.Sprintf("hp715-%02d", i), cluster.HP715))
		}
		c.Advance(30 * time.Minute)
		return c
	}
	got, err := Replay(pool(), FIFO, 42, nil, farmMix())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Replay(pool(), FIFO, 42, uniformTimer, farmMix())
	if err != nil {
		t.Fatal(err)
	}
	if got.Weighted != 0 {
		t.Errorf("%d jobs weighted on an equal-speed pool, want 0", got.Weighted)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("equal-speed farm diverged from uniform pricing:\nweighted: %v\nuniform:  %v", got, want)
	}
}

// weightedSimConfig is a real 2D LB channel decomposed with the
// speed-weighted splitter (a 715/710 pair, spans 2:1.68), the workload
// for the weighted checkpoint round trip.
func weightedSimConfig(t *testing.T) *core.Config2D {
	t.Helper()
	sh, err := decomp.WeightedShape(2, 1, 0, 24, 16, 0, []float64{1.0, 0.84})
	if err != nil {
		t.Fatal(err)
	}
	d, err := decomp.NewShaped(sh, decomp.Full)
	if err != nil {
		t.Fatal(err)
	}
	d.PeriodicX = true
	par := fluid.DefaultParams()
	par.Nu = 0.1
	par.Eps = 0.01
	par.ForceX = 1e-5
	return &core.Config2D{
		Method: core.MethodLB,
		Par:    par,
		Mask:   fluid.ChannelMask2D(24, 16),
		D:      d,
	}
}

// TestWeightedJobCheckpointRestoreRoundTrip: a real simulation on a
// weighted decomposition runs under the farm on a mixed 715/710 pool,
// is checkpointed mid-run (through the snapshot path, still placed),
// killed, and restored. The manifest must record the job's weighted
// spans, the restored farm must finish with a summary bit-identical to
// an uninterrupted run, and the simulation's final fields must match
// the sequential reference on the same weighted decomposition.
func TestWeightedJobCheckpointRestoreRoundTrip(t *testing.T) {
	const steps = 40
	spec := JobSpec{ID: "wsim", Method: "lb2d", JX: 2, JY: 1, Side: 1000, Steps: steps}
	ref, _, err := core.RunSequential2D(weightedSimConfig(t), steps)
	if err != nil {
		t.Fatal(err)
	}

	pool := func() *cluster.Cluster { return mixedPool(cluster.HP715, cluster.HP710) }

	// Uninterrupted reference farm on the same scenario grid.
	runRef := func() Summary {
		t.Helper()
		s := newFarm(pool(), FIFO, 9)
		s.scenarioEvery = time.Minute
		s.scenario = func(time.Duration, *cluster.Cluster) {}
		if _, err := s.Submit(spec, nil); err != nil {
			t.Fatal(err)
		}
		s.Drain()
		sum, err := s.loop(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	want := runRef()
	if j := jobByID(t, want, "wsim"); !j.Weighted || !(j.Imbalance < 1.02) {
		t.Fatalf("mixed-pool sim not weighted-balanced: weighted %v imbalance %v", j.Weighted, j.Imbalance)
	}

	// The doomed coordinator, with the real weighted simulation attached.
	dir := t.TempDir()
	pool1 := pool()
	s1 := newFarm(pool1, FIFO, 9)
	job1, _ := newSimJob(t, weightedSimConfig(t), steps)
	stopAbandoned(t, job1)
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	s1.ckptDir = dir // the cancel saves there
	s1.scenarioEvery = time.Minute
	s1.scenario = func(vt time.Duration, _ *cluster.Cluster) {
		if vt >= 5*time.Minute {
			crash()
		}
	}
	if _, err := s1.Submit(spec, &CoreWorkload{Job: job1}); err != nil {
		t.Fatal(err)
	}
	s1.Drain()
	if _, err := s1.loop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed run returned %v, want context.Canceled (nil: the sim drained before 5 virtual minutes)", err)
	}

	// The manifest records the weighted spans: the 715's column is
	// strictly wider, the spans sum to the virtual grid, and restoring
	// rebuilds exactly this shape.
	m, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var jr ckpt.JobRecord
	for _, r := range m.Jobs {
		if r.ID == "wsim" {
			jr = r
		}
	}
	if jr.Phase != ckpt.PhaseRunning {
		t.Fatalf("wsim checkpointed as %q, want running", jr.Phase)
	}
	if len(jr.SpansX) != 2 || jr.SpansX[0] <= jr.SpansX[1] || jr.SpansX[0]+jr.SpansX[1] != 2000 {
		t.Errorf("manifest x spans %v, want two spans summing to 2000 with the 715's wider", jr.SpansX)
	}
	if jr.Imbalance <= 0 {
		t.Errorf("manifest imbalance %v, want > 0", jr.Imbalance)
	}

	// Restore with the weighted config rebuilt through the registry.
	pool2 := pool()
	var progs2 *core.JobPrograms2D
	reg := WorkloadRegistry{
		"wsim": func(sp JobSpec) (Workload, error) {
			job2, p2 := newSimJob(t, weightedSimConfig(t), sp.Steps)
			progs2 = p2
			return &CoreWorkload{Job: job2}, nil
		},
	}
	s2, err := Restore(dir, pool2, reg)
	if err != nil {
		t.Fatal(err)
	}
	s2.scenarioEvery = time.Minute
	s2.scenario = func(time.Duration, *cluster.Cluster) {}
	got, err := s2.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored weighted run differs from the uninterrupted one:\nwant %v\ngot  %v", want, got)
	}
	if progs2 == nil {
		t.Fatal("workload registry never invoked")
	}
	final := progs2.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != final.Rho[i] || ref.Vx[i] != final.Vx[i] || ref.Vy[i] != final.Vy[i] {
			t.Fatalf("restored weighted simulation differs from reference at node %d", i)
		}
	}
}

// TestManifestRejectsCorruptSpans: hand-mauled span records (wrong
// count, wrong sum) must fail the restore's record check, never rebuild
// a job whose subregions disagree with its dumps.
func TestManifestRejectsCorruptSpans(t *testing.T) {
	base := ckpt.JobRecord{
		ID: "x", Method: "lb2d", JX: 2, JY: 1, Side: 10, Steps: 5,
		Phase: ckpt.PhaseQueued, Accounting: ckpt.Accounting{Remaining: 5},
	}
	mk := func(mut func(*ckpt.JobRecord)) ckpt.JobRecord {
		jr := base
		mut(&jr)
		return jr
	}
	if _, err := checkRecord(mk(func(jr *ckpt.JobRecord) { jr.SpansX = []int{12, 8}; jr.SpansY = []int{10} }), nil); err != nil {
		t.Errorf("valid spans rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*ckpt.JobRecord)
		want string
	}{
		{"wrong span count", func(jr *ckpt.JobRecord) { jr.SpansX = []int{20}; jr.SpansY = []int{10} }, "1 x spans for 2 pieces"},
		{"wrong span sum", func(jr *ckpt.JobRecord) { jr.SpansX = []int{12, 9}; jr.SpansY = []int{10} }, "x spans sum to 21"},
		{"zero span", func(jr *ckpt.JobRecord) { jr.SpansX = []int{20, 0}; jr.SpansY = []int{10} }, "0-node x span"},
		{"z spans on 2D", func(jr *ckpt.JobRecord) {
			jr.SpansX = []int{12, 8}
			jr.SpansY = []int{10}
			jr.SpansZ = []int{10}
		}, "2D shape carries 1 z spans"},
		{"missing y spans", func(jr *ckpt.JobRecord) { jr.SpansX = []int{12, 8} }, "0 y spans"},
	}
	for _, tc := range bad {
		if _, err := checkRecord(mk(tc.mut), nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestZeroShapeIsTheUniformSplit: the farm prices and measures the zero
// shape from span arithmetic (axisSpan), without building it; every
// answer must be the one the built uniform shape gives, on grids whose
// extents leave remainders on every axis, and the zero shape's pricing
// and measuring must allocate nothing.
func TestZeroShapeIsTheUniformSplit(t *testing.T) {
	hosts := mixedPool(cluster.HP715, cluster.HP710, cluster.HP720, cluster.HP715,
		cluster.HP720, cluster.HP710, cluster.HP715, cluster.HP715, cluster.HP710,
		cluster.HP720, cluster.HP715, cluster.HP715).Hosts
	hosts[3].StartJob()
	var specs []JobSpec
	for _, l := range [][3]int{{1, 1, 0}, {3, 2, 0}, {4, 3, 0}, {2, 2, 2}, {3, 2, 2}, {1, 3, 4}} {
		for _, g := range [][3]int{{0, 0, 0}, {37, 29, 23}, {50, 41, 17}} {
			sp := JobSpec{ID: "u", Method: "lb3d", JX: l[0], JY: l[1], JZ: l[2], Side: 7, Steps: 1, GX: g[0], GY: g[1]}
			if l[2] > 0 {
				sp.GZ = g[2]
			} else {
				sp.Method = "fd2d"
			}
			specs = append(specs, sp)
		}
	}
	for _, sp := range specs {
		uni := uniformShape(sp)
		var nodes []int
		forEachRank(sp, decomp.Shape{}, func(rank, n int) { nodes = append(nodes, n) })
		var want []int
		forEachRank(sp, uni, func(rank, n int) { want = append(want, n) })
		if !reflect.DeepEqual(nodes, want) {
			t.Errorf("%+v: zero shape walks %v, the built uniform shape %v", sp, nodes, want)
		}
		for name, fn := range map[string]func(JobSpec, decomp.Shape, []*cluster.Host) (float64, error){
			"ComputeTimer": ComputeTimer, "Imbalance": Imbalance,
		} {
			z, errZ := fn(sp, decomp.Shape{}, hosts)
			u, errU := fn(sp, uni, hosts)
			if errZ != nil || errU != nil || z != u {
				t.Errorf("%+v: %s of the zero shape = %v (%v), of the built uniform shape %v (%v)", sp, name, z, errZ, u, errU)
			}
			if n := testing.AllocsPerRun(20, func() { fn(sp, decomp.Shape{}, hosts) }); n != 0 {
				t.Errorf("%+v: %s of the zero shape allocates %v times", sp, name, n)
			}
		}
	}
}
