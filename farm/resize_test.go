package farm

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
)

// resizeCfg is the filter-off 2D LB channel the resize tests run as a
// real workload. The fourth-order filter's stencil spans subregion
// seams, so bit-identical resizing requires Eps = 0 (core.Job.Resize
// refuses otherwise); the global grid is fixed at 24x24 whatever the
// lattice, so the same problem re-splits onto any rank count.
func resizeCfg(t *testing.T, jx, jy int) *core.Config2D {
	t.Helper()
	const nx, ny = 24, 24
	d, err := decomp.New2D(jx, jy, nx, ny, decomp.Full)
	if err != nil {
		t.Fatal(err)
	}
	d.PeriodicX = true
	par := fluid.DefaultParams()
	par.Nu = 0.1
	par.Eps = 0
	par.ForceX = 1e-5
	return &core.Config2D{
		Method: core.MethodLB,
		Par:    par,
		Mask:   fluid.ChannelMask2D(nx, ny),
		D:      d,
	}
}

// resizeSpec is the matching JobSpec: a jx x jy lattice with the 24x24
// grid pinned explicitly, so the scheduler's resize lattices keep
// measuring the same problem the core config integrates.
func resizeSpec(id string, jx, jy, steps int) JobSpec {
	return JobSpec{ID: id, Method: "lb2d", JX: jx, JY: jy, Side: 12,
		GX: 24, GY: 24, Steps: steps}
}

// fixedTimer prices every placement at one virtual second per step, so
// the tests' virtual timelines are independent of host speeds and rank
// counts.
func fixedTimer(JobSpec, decomp.Shape, []*cluster.Host) (float64, error) {
	return 1, nil
}

// TestResizeLifecycleBitIdentical is the malleability acceptance test at
// the scheduler level: a real 2D LB simulation grows 4 -> 6 ranks and
// later shrinks 6 -> 2 through the autoscale control handle while
// running, finishes, and its final fields are bit-identical to a
// sequential reference. The metrics counters and the event stream record
// both resizes.
func TestResizeLifecycleBitIdentical(t *testing.T) {
	const steps = 40
	ref, _, err := core.RunSequential2D(resizeCfg(t, 2, 2), steps)
	if err != nil {
		t.Fatal(err)
	}

	pool := idlePool()
	s := newFarm(pool, FIFO, 42)
	s.timer = fixedTimer
	events := tap(t, s)
	s.autoscaleEvery = 5 * time.Second
	s.autoscale = func(vt time.Duration, ctl AutoscaleControl) {
		switch vt {
		case 5 * time.Second:
			sm := ctl.Sample()
			if len(sm.Running) != 1 || sm.Running[0].Ranks != 4 {
				t.Errorf("sample at 5s: %+v, want one 4-rank running job", sm.Running)
			}
			if p := sm.Running[0].Progress; p < 0.1 || p > 0.15 {
				t.Errorf("progress at 5s = %v, want ~5/40", p)
			}
			ctl.Decide("sim", "grow", 4, 6, "queue empty, hosts free")
			if err := ctl.Resize("sim", 6); err != nil {
				t.Errorf("grow: %v", err)
			}
		case 15 * time.Second:
			if err := ctl.Resize("sim", 2); err != nil {
				t.Errorf("shrink: %v", err)
			}
		case 25 * time.Second:
			if n := ctl.Sample().Running[0].Ranks; n != 2 {
				t.Errorf("ranks after shrink = %d, want 2", n)
			}
			assigned := 0
			for _, h := range pool.Hosts {
				if h.Assigned() >= 0 {
					assigned++
				}
			}
			if assigned != 2 {
				t.Errorf("%d hosts assigned after shrink, want 2", assigned)
			}
		}
	}

	job, progs := newSimJob(t, resizeCfg(t, 2, 2), steps)
	if _, err := s.Submit(resizeSpec("sim", 2, 2, steps), &CoreWorkload{Job: job}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	sum, err := s.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	j := jobByID(t, sum, "sim")
	if j.Resizes != 2 || j.GrowRanks != 2 || j.ShrinkRanks != 4 {
		t.Errorf("resizes=%d grow=%d shrink=%d, want 2/2/4", j.Resizes, j.GrowRanks, j.ShrinkRanks)
	}
	if j.Ranks != 2 {
		t.Errorf("final ranks = %d, want 2 (the metrics record the last lattice)", j.Ranks)
	}
	if sum.Resizes != 2 || sum.GrowRanks != 2 || sum.ShrinkRanks != 4 {
		t.Errorf("summary resizes=%d grow=%d shrink=%d, want 2/2/4",
			sum.Resizes, sum.GrowRanks, sum.ShrinkRanks)
	}

	var resized []JobResized
	decisions := 0
	for _, e := range events() {
		switch ev := e.(type) {
		case JobResized:
			resized = append(resized, ev)
		case AutoscaleDecision:
			decisions++
		}
	}
	if len(resized) != 2 || resized[0].From != 4 || resized[0].To != 6 ||
		resized[1].From != 6 || resized[1].To != 2 {
		t.Errorf("JobResized events %+v, want 4>6 then 6>2", resized)
	}
	if len(resized) == 2 && (len(resized[0].Hosts) != 6 || len(resized[1].Hosts) != 2) {
		t.Errorf("resized placements %d/%d hosts, want 6/2",
			len(resized[0].Hosts), len(resized[1].Hosts))
	}
	if decisions != 1 {
		t.Errorf("%d AutoscaleDecision events, want 1", decisions)
	}

	final := progs.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != final.Rho[i] || ref.Vx[i] != final.Vx[i] || ref.Vy[i] != final.Vy[i] {
			t.Fatalf("resized simulation differs from reference at node %d", i)
		}
	}
}

// TestResizeSentinelsAndNoOp covers the resize request surface: resizing
// to the current size is a silent no-op, a queued job and a finished job
// are ErrNotRunning, a stranger is ErrUnknownJob, a rank count beyond
// the pool — or beyond its free hosts — is ErrNoCapacity and leaves the
// job untouched, and a later tick's grow commits at that tick's time.
func TestResizeSentinelsAndNoOp(t *testing.T) {
	s := newFarm(idlePool(), FIFO, 7)
	s.timer = fixedTimer
	events := tap(t, s)

	type verdict struct {
		name string
		err  error
		want error // nil = any non-nil error is wrong
	}
	var got []verdict
	s.autoscaleEvery = 5 * time.Second
	s.autoscale = func(vt time.Duration, ctl AutoscaleControl) {
		switch vt {
		case 5 * time.Second:
			got = append(got,
				verdict{"no-op", ctl.Resize("big", 20), nil},
				verdict{"queued", ctl.Resize("waiting", 4), ErrNotRunning},
				verdict{"stranger", ctl.Resize("ghost", 4), ErrUnknownJob},
				verdict{"beyond pool", ctl.Resize("big", 26), ErrNoCapacity},
				verdict{"beyond free", ctl.Resize("big", 24), ErrNoCapacity},
			)
			if err := ctl.Resize("big", 0); err == nil {
				t.Error("resize to 0 ranks accepted")
			}
			sm := ctl.Sample()
			if sm.QueueDepth != 1 || len(sm.Running) != 2 || len(sm.Queued) != 1 {
				t.Errorf("sample: depth=%d running=%d queued=%d, want 1/2/1",
					sm.QueueDepth, len(sm.Running), len(sm.Queued))
			}
			if u := sm.Utilization(); u != 22.0/25.0 {
				t.Errorf("utilization = %v, want 22/25", u)
			}
			for _, q := range sm.Queued {
				if q.Running || q.StepSec != 0 || q.Progress != 0 {
					t.Errorf("queued sample %+v, want unpriced and unstarted", q)
				}
			}
		case 10 * time.Second:
			got = append(got,
				verdict{"grow", ctl.Resize("small", 4), nil},
				verdict{"stranger later", ctl.Resize("ghost", 1), ErrUnknownJob},
			)
		case 35 * time.Second:
			got = append(got, verdict{"finished", ctl.Resize("big", 4), ErrNotRunning})
		}
	}

	// 20 + 2 of 25 hosts busy; "waiting" (8 ranks) queues behind them.
	for _, spec := range []JobSpec{
		{ID: "big", Method: "lb2d", JX: 5, JY: 4, Side: 10, Steps: 30},
		{ID: "small", Method: "lb2d", JX: 2, JY: 1, Side: 10, Steps: 50},
		{ID: "waiting", Method: "lb2d", JX: 4, JY: 2, Side: 10, Steps: 10},
	} {
		if _, err := s.Submit(spec, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	sum, err := s.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, v := range got {
		if v.want == nil {
			if v.err != nil {
				t.Errorf("%s: %v, want nil", v.name, v.err)
			}
		} else if !errors.Is(v.err, v.want) {
			t.Errorf("%s: %v, want %v", v.name, v.err, v.want)
		}
		if v.name == "beyond free" && !errors.Is(v.err, cluster.ErrShortfall) {
			t.Errorf("%s: %v, want the reservation's cluster.ErrShortfall kept in the chain", v.name, v.err)
		}
	}
	if len(got) != 8 {
		t.Fatalf("%d verdicts recorded, want 8", len(got))
	}

	if len(sum.Jobs) != 3 {
		t.Fatalf("%d jobs finished, want 3", len(sum.Jobs))
	}
	big, small := jobByID(t, sum, "big"), jobByID(t, sum, "small")
	if big.Resizes != 0 || big.Ranks != 20 {
		t.Errorf("big resizes=%d ranks=%d, want 0/20 (every attempt refused or no-op)",
			big.Resizes, big.Ranks)
	}
	if small.Resizes != 1 || small.GrowRanks != 2 || small.Ranks != 4 {
		t.Errorf("small resizes=%d grow=%d ranks=%d, want 1/2/4",
			small.Resizes, small.GrowRanks, small.Ranks)
	}
	count := 0
	for _, e := range events() {
		if ev, ok := e.(JobResized); ok {
			count++
			if ev.ID != "small" || ev.From != 2 || ev.To != 4 || ev.T != 10*time.Second {
				t.Errorf("JobResized %+v, want small 2>4 at 10s", ev)
			}
		}
	}
	if count != 1 {
		t.Errorf("%d JobResized events, want 1 (no-ops and refusals emit nothing)", count)
	}
}

// TestResizeWithReclaimSameRound interleaves the two placement mutations
// at one virtual instant: a scenario tick reclaims one of a running
// simulation's hosts and the autoscale tick of the same instant grows
// the job, so the grow re-splits over a placement that still holds the
// reclaimed host and the migration vacates it immediately afterwards —
// resize first, then migration, both at the same virtual time. The
// simulation's final fields stay bit-identical through the combination.
func TestResizeWithReclaimSameRound(t *testing.T) {
	const steps = 60
	ref, _, err := core.RunSequential2D(resizeCfg(t, 2, 2), steps)
	if err != nil {
		t.Fatal(err)
	}

	pool := idlePool()
	s := newFarm(pool, FIFO, 5)
	s.timer = fixedTimer
	events := tap(t, s)
	s.scenarioEvery = 5 * time.Second
	s.scenario = func(vt time.Duration, c *cluster.Cluster) {
		if vt != 10*time.Second {
			return
		}
		for _, h := range c.Hosts {
			if h.Owner() == "sim" {
				c.Reclaim(h)
				return
			}
		}
		t.Error("no host owned by sim at 10s")
	}
	s.autoscaleEvery = 5 * time.Second
	s.autoscale = func(vt time.Duration, ctl AutoscaleControl) {
		if vt == 10*time.Second {
			if err := ctl.Resize("sim", 6); err != nil {
				t.Errorf("grow during reclaim: %v", err)
			}
		}
	}

	job, progs := newSimJob(t, resizeCfg(t, 2, 2), steps)
	if _, err := s.Submit(resizeSpec("sim", 2, 2, steps), &CoreWorkload{Job: job}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	sum, err := s.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	j := jobByID(t, sum, "sim")
	if j.Resizes != 1 || j.GrowRanks != 2 || j.Migrations != 1 {
		t.Errorf("resizes=%d grow=%d migrations=%d, want 1/2/1", j.Resizes, j.GrowRanks, j.Migrations)
	}
	resizedAt, migratedAt := -1, -1
	for i, e := range events() {
		switch ev := e.(type) {
		case JobResized:
			resizedAt = i
			if ev.T != 10*time.Second || ev.From != 4 || ev.To != 6 {
				t.Errorf("JobResized %+v, want 4>6 at 10s", ev)
			}
		case JobMigrated:
			migratedAt = i
			if ev.T != 10*time.Second || len(ev.Ranks) != 1 {
				t.Errorf("JobMigrated %+v, want one rank at 10s", ev)
			}
		}
	}
	if resizedAt < 0 || migratedAt < 0 || resizedAt > migratedAt {
		t.Errorf("event order: resize at %d, migration at %d; want resize first, both present",
			resizedAt, migratedAt)
	}

	final := progs.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != final.Rho[i] || ref.Vx[i] != final.Vx[i] || ref.Vy[i] != final.Vy[i] {
			t.Fatalf("resized+migrated simulation differs from reference at node %d", i)
		}
	}
}

// TestCheckpointRestoreAcrossResize kills a coordinator after its only
// job grew 4 -> 6 ranks, so the checkpoint holds the resized lattice
// (six rank states, the pinned grid, the resize counters). A fresh
// scheduler restores it with a workload factory that sizes the rebuilt
// simulation from the EFFECTIVE spec it receives, finishes the farm, and
// both the metrics summary and the simulation's final fields are
// bit-identical to the uninterrupted references.
func TestCheckpointRestoreAcrossResize(t *testing.T) {
	const steps = 40
	ref, _, err := core.RunSequential2D(resizeCfg(t, 2, 2), steps)
	if err != nil {
		t.Fatal(err)
	}
	spec := resizeSpec("sim", 2, 2, steps)
	growAt5 := func(vt time.Duration, ctl AutoscaleControl) {
		if vt == 5*time.Second {
			if err := ctl.Resize("sim", 6); err != nil {
				t.Errorf("grow: %v", err)
			}
		}
	}

	// Reference run: no crash, same scenario and autoscale tick grids.
	refFarm := newFarm(idlePool(), FIFO, 42)
	refFarm.timer = fixedTimer
	refFarm.scenarioEvery = 5 * time.Second
	refFarm.scenario = func(time.Duration, *cluster.Cluster) {}
	refFarm.autoscaleEvery = 5 * time.Second
	refFarm.autoscale = growAt5
	if _, err := refFarm.Submit(spec, nil); err != nil {
		t.Fatal(err)
	}
	refFarm.Drain()
	want, err := refFarm.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The doomed coordinator: real simulation, resize at 5s, checkpoint
	// and crash at 10s.
	dir := t.TempDir()
	pool1 := idlePool()
	s1 := newFarm(pool1, FIFO, 42)
	s1.timer = fixedTimer
	job1, _ := newSimJob(t, resizeCfg(t, 2, 2), steps)
	stopAbandoned(t, job1)
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	s1.ckptDir = dir // the cancel saves there
	s1.scenarioEvery = 5 * time.Second
	s1.scenario = func(vt time.Duration, _ *cluster.Cluster) {
		if vt >= 10*time.Second {
			crash()
		}
	}
	s1.autoscaleEvery = 5 * time.Second
	s1.autoscale = growAt5
	if _, err := s1.Submit(spec, &CoreWorkload{Job: job1}); err != nil {
		t.Fatal(err)
	}
	s1.Drain()
	if _, err := s1.loop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed run returned %v, want context.Canceled (nil: the farm drained before 10 virtual seconds)", err)
	}

	// The manifest must hold the resized placement: the 3x2 lattice, six
	// rank states, the original grid, and the resize history.
	m, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var jr *ckpt.JobRecord
	for i := range m.Jobs {
		if m.Jobs[i].ID == "sim" {
			jr = &m.Jobs[i]
		}
	}
	if jr == nil {
		t.Fatal("sim missing from manifest")
	}
	if jr.CurJX != 3 || jr.CurJY != 2 || jr.CurJZ != 0 {
		t.Errorf("checkpointed lattice %dx%dx%d, want 3x2", jr.CurJX, jr.CurJY, jr.CurJZ)
	}
	if jr.GridX != 24 || jr.GridY != 24 {
		t.Errorf("checkpointed grid %dx%d, want 24x24", jr.GridX, jr.GridY)
	}
	if jr.Resizes != 1 || jr.GrowRanks != 2 {
		t.Errorf("checkpointed resizes=%d grow=%d, want 1/2", jr.Resizes, jr.GrowRanks)
	}
	if len(jr.Hosts) != 6 || len(jr.StateSteps) != 6 {
		t.Errorf("checkpointed %d hosts / %d states, want 6/6", len(jr.Hosts), len(jr.StateSteps))
	}

	// Restore with a factory that honors the effective spec: the lattice
	// it receives is the current 3x2, not the submitted 2x2.
	pool2 := cluster.NewPaperCluster()
	var progs2 *core.JobPrograms2D
	reg := WorkloadRegistry{
		"sim": func(spec JobSpec) (Workload, error) {
			if spec.JX != 3 || spec.JY != 2 {
				t.Errorf("factory got lattice %dx%d, want the effective 3x2", spec.JX, spec.JY)
			}
			if gx, gy, _ := spec.Grid(); gx != 24 || gy != 24 {
				t.Errorf("factory got grid %dx%d, want 24x24", gx, gy)
			}
			job2, p2 := newSimJob(t, resizeCfg(t, spec.JX, spec.JY), spec.Steps)
			progs2 = p2
			return &CoreWorkload{Job: job2}, nil
		},
	}
	s2, err := Restore(dir, pool2, reg)
	if err != nil {
		t.Fatal(err)
	}
	s2.timer = fixedTimer
	s2.scenarioEvery = 5 * time.Second
	s2.scenario = func(time.Duration, *cluster.Cluster) {}
	s2.autoscaleEvery = 5 * time.Second
	s2.autoscale = growAt5
	got, err := s2.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored run's summary differs:\nwant %v\ngot  %v", want, got)
	}
	j := jobByID(t, got, "sim")
	if j.Resizes != 1 || j.GrowRanks != 2 || j.Ranks != 6 {
		t.Errorf("restored job resizes=%d grow=%d ranks=%d, want 1/2/6",
			j.Resizes, j.GrowRanks, j.Ranks)
	}
	if progs2 == nil {
		t.Fatal("workload registry never invoked")
	}
	final := progs2.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != final.Rho[i] || ref.Vx[i] != final.Vx[i] || ref.Vy[i] != final.Vy[i] {
			t.Fatalf("restored resized simulation differs from reference at node %d", i)
		}
	}
}

// TestChooseLattice pins the deterministic factorization: near-square
// (near-cubic) lattices, the longer factor along the longer grid axis,
// and a typed failure when nothing fits.
func TestChooseLattice(t *testing.T) {
	spec2D := func(gx, gy int) JobSpec {
		return JobSpec{Method: "lb2d", JX: 1, JY: 1, Side: 1, GX: gx, GY: gy}
	}
	spec3D := func(gx, gy, gz int) JobSpec {
		return JobSpec{Method: "lb3d", JX: 1, JY: 1, JZ: 1, Side: 1, GX: gx, GY: gy, GZ: gz}
	}
	cases := []struct {
		name       string
		n          int
		spec       JobSpec
		jx, jy, jz int
	}{
		{"square grid", 6, spec2D(24, 24), 3, 2, 0},
		{"tall grid", 6, spec2D(8, 24), 2, 3, 0},
		{"strip", 5, spec2D(24, 4), 5, 1, 0},
		{"swap to fit", 6, spec2D(2, 24), 2, 3, 0},
		{"cube", 27, spec3D(3, 3, 3), 3, 3, 3},
		{"box", 12, spec3D(8, 8, 2), 3, 2, 2},
		{"flat 3d", 12, spec3D(8, 8, 1), 4, 3, 1},
	}
	for _, tc := range cases {
		jx, jy, jz, err := chooseLattice(tc.n, tc.spec)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if jx != tc.jx || jy != tc.jy || jz != tc.jz {
			t.Errorf("%s: chooseLattice(%d) = %dx%dx%d, want %dx%dx%d",
				tc.name, tc.n, jx, jy, jz, tc.jx, tc.jy, tc.jz)
		}
	}
	if _, _, _, err := chooseLattice(7, spec2D(4, 4)); err == nil {
		t.Error("7 ranks on a 4x4 grid: no lattice fits, want an error")
	}
	if _, _, _, err := chooseLattice(11, spec3D(4, 4, 4)); err == nil {
		t.Error("11 ranks on a 4x4x4 grid: no lattice fits, want an error")
	}
}

// TestJobSpecGrid covers the grid pinning introduced for malleability:
// derivation from the lattice when unset, the pinned values when set,
// and the validation failures for malformed grids and 2D lattices.
func TestJobSpecGrid(t *testing.T) {
	derived := JobSpec{ID: "d", Method: "lb2d", JX: 3, JY: 2, Side: 10, Steps: 1}
	if gx, gy, gz := derived.Grid(); gx != 30 || gy != 20 || gz != 0 {
		t.Errorf("derived grid %dx%dx%d, want 30x20x0", gx, gy, gz)
	}
	pinned := JobSpec{ID: "p", Method: "lb3d", JX: 2, JY: 2, JZ: 2, Side: 8,
		GX: 40, GY: 48, Steps: 1}
	if gx, gy, gz := pinned.Grid(); gx != 40 || gy != 48 || gz != 16 {
		t.Errorf("pinned grid %dx%dx%d, want 40x48x16 (GZ derived)", gx, gy, gz)
	}
	if err := pinned.Validate(); err != nil {
		t.Errorf("pinned spec rejected: %v", err)
	}

	bad := []JobSpec{
		{ID: "neg", Method: "lb2d", JX: 1, JY: 1, Side: 4, GX: -1, Steps: 1},
		{ID: "gz2d", Method: "lb2d", JX: 1, JY: 1, Side: 4, GZ: 8, Steps: 1},
		{ID: "thin", Method: "lb2d", JX: 4, JY: 1, Side: 4, GX: 2, Steps: 1},
		// A 2D method's lattice is JZ = 0: with JZ = 1 the spec would be
		// Is3D, Side*JZ deep and priced as a 3D job.
		{ID: "lb2d-jz1", Method: "lb2d", JX: 2, JY: 2, JZ: 1, Side: 20, Steps: 1},
		{ID: "fd2d-jz1", Method: "fd2d", JX: 2, JY: 2, JZ: 1, Side: 20, Steps: 1},
		{ID: "lb2d-jz-1", Method: "lb2d", JX: 2, JY: 2, JZ: -1, Side: 20, Steps: 1},
	}
	for _, spec := range bad {
		if err := spec.Validate(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidSpec", spec.ID, err)
		}
	}
}

// Utilization is the fraction of the pool serving ranks at this tick.
func (s Sample) Utilization() float64 {
	if s.TotalHosts == 0 {
		return 0
	}
	busy := 0
	for _, j := range s.Running {
		busy += j.Ranks
	}
	return float64(busy) / float64(s.TotalHosts)
}

// TestSampleUtilization pins the control-loop arithmetic on a handmade
// sample (no farm involved).
func TestSampleUtilization(t *testing.T) {
	s := Sample{TotalHosts: 25, Running: []JobSample{{Ranks: 20}, {Ranks: 2}}}
	if u := s.Utilization(); u != 22.0/25.0 {
		t.Errorf("utilization = %v, want 22/25", u)
	}
	if u := (Sample{}).Utilization(); u != 0 {
		t.Errorf("empty sample utilization = %v, want 0", u)
	}
}

// TestScenarioBeforeAutoscale pins the same-instant order of the two
// script ticks: when both fall on one virtual instant, the scenario runs
// first, so the autoscaler samples the host reclaim the scenario made at
// that instant.
func TestScenarioBeforeAutoscale(t *testing.T) {
	s := newFarm(idlePool(), FIFO, 1)
	s.timer = fixedTimer
	if _, err := s.Submit(JobSpec{ID: "long", Method: "lb2d", JX: 1, JY: 1, Side: 10, Steps: 600}, nil); err != nil {
		t.Fatal(err)
	}
	before, afterReclaim, sampled := -1, -1, -1
	s.scenarioEvery, s.autoscaleEvery = time.Minute, time.Minute
	s.scenario = func(vt time.Duration, c *cluster.Cluster) {
		if vt != time.Minute {
			return
		}
		before = c.Capacity(s.selection)
		for _, h := range c.Hosts {
			if h.Assigned() < 0 {
				c.Reclaim(h)
				break
			}
		}
		afterReclaim = c.Capacity(s.selection)
		s.Drain()
	}
	s.autoscale = func(vt time.Duration, ctl AutoscaleControl) {
		if vt == time.Minute {
			sampled = ctl.Sample().FreeHosts
		}
	}
	if _, err := s.loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if afterReclaim != before-1 {
		t.Fatalf("the scenario's reclaim left %d free hosts of %d, want one fewer", afterReclaim, before)
	}
	if sampled != afterReclaim {
		t.Errorf("the autoscaler sampled %d free hosts at 1m, want %d: it ran before the scenario's reclaim of the same instant",
			sampled, afterReclaim)
	}
}
