package core

import (
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fluid"
	"repro/internal/syncfile"
)

// resizeCfg2D builds a filter-off channel config (Eps = 0 is the resize
// precondition: filter applicability is seam-dependent).
func resizeCfg2D(t *testing.T, method string, jx, jy int) *Config2D {
	t.Helper()
	d, err := decomp.New2D(jx, jy, 24, 16, decomp.Full)
	if err != nil {
		t.Fatal(err)
	}
	d.PeriodicX = true
	par := fluid.DefaultParams()
	par.Nu = 0.1
	par.Eps = 0
	par.ForceX = 1e-5
	return &Config2D{
		Method: method,
		Par:    par,
		Mask:   fluid.ChannelMask2D(24, 16),
		D:      d,
	}
}

func resizeCfg3D(t *testing.T, method string, jx, jy, jz int) *Config3D {
	t.Helper()
	d, err := decomp.New3D(jx, jy, jz, 12, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The duct mask walls only the y faces; x and z are periodic here,
	// and TestOpenFacesSurviveDumps opens x.
	d.PeriodicX = true
	d.PeriodicZ = true
	par := fluid.DefaultParams()
	par.Nu = 0.1
	par.Eps = 0
	par.ForceX = 1e-5
	return &Config3D{
		Method: method,
		Par:    par,
		Mask:   fluid.ChannelMask3D(12, 10, 8),
		D:      d,
	}
}

// startJob2D launches a job and waits until every rank has advanced past
// the given step, so a mid-run Resize really interrupts in-flight compute.
func startJob2D(t *testing.T, cfg *Config2D, steps int) (*Job, *JobPrograms2D) {
	t.Helper()
	sf, err := syncfile.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job, progs, err := NewJob2D(cfg, HubFactory(), sf, steps)
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	return job, progs
}

// TestResize2DBitIdentical: grow then shrink a running 2D job and compare
// the final fields bit-for-bit with the sequential reference, for both
// methods.
func TestResize2DBitIdentical(t *testing.T) {
	const steps = 30
	for _, method := range []string{MethodLB, MethodFD} {
		t.Run(method, func(t *testing.T) {
			ref, _, err := RunSequential2D(resizeCfg2D(t, method, 2, 2), steps)
			if err != nil {
				t.Fatal(err)
			}

			cfg := resizeCfg2D(t, method, 2, 2)
			job, progs := startJob2D(t, cfg, steps)
			// Grow 4 -> 6 ranks.
			if err := job.Resize(decomp.UniformShape(3, 2, 0, 24, 16, 0)); err != nil {
				t.Fatalf("grow: %v", err)
			}
			if got := job.P(); got != 6 {
				t.Fatalf("after grow P = %d, want 6", got)
			}
			// Shrink 6 -> 2 ranks.
			if err := job.Resize(decomp.UniformShape(2, 1, 0, 24, 16, 0)); err != nil {
				t.Fatalf("shrink: %v", err)
			}
			if got := job.P(); got != 2 {
				t.Fatalf("after shrink P = %d, want 2", got)
			}
			if err := job.WaitDone(); err != nil {
				t.Fatal(err)
			}
			job.Shutdown()

			got := progs.Gather(steps)
			if got.NX != ref.NX || got.NY != ref.NY {
				t.Fatalf("result shape %dx%d, want %dx%d", got.NX, got.NY, ref.NX, ref.NY)
			}
			for i := range ref.Rho {
				for _, pair := range [][2][]float64{{ref.Rho, got.Rho}, {ref.Vx, got.Vx}, {ref.Vy, got.Vy}} {
					if d := math.Abs(pair[0][i] - pair[1][i]); d != 0 {
						t.Fatalf("resized solution differs at index %d by %g", i, d)
					}
				}
			}
		})
	}
}

// TestResize3DBitIdentical is the 3D analogue: grow 2 -> 4 ranks mid-run.
func TestResize3DBitIdentical(t *testing.T) {
	const steps = 12
	for _, method := range []string{MethodLB, MethodFD} {
		t.Run(method, func(t *testing.T) {
			ref, _, err := RunSequential3D(resizeCfg3D(t, method, 2, 1, 1), steps)
			if err != nil {
				t.Fatal(err)
			}

			cfg := resizeCfg3D(t, method, 2, 1, 1)
			sf, err := syncfile.New(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			job, progs, err := NewJob3D(cfg, HubFactory(), sf, steps)
			if err != nil {
				t.Fatal(err)
			}
			job.Start()
			if err := job.Resize(decomp.UniformShape3D(2, 2, 1, 12, 10, 8)); err != nil {
				t.Fatalf("grow: %v", err)
			}
			if got := job.P(); got != 4 {
				t.Fatalf("after grow P = %d, want 4", got)
			}
			if err := job.WaitDone(); err != nil {
				t.Fatal(err)
			}
			job.Shutdown()

			got := progs.Gather(steps)
			for i := range ref.Rho {
				for _, pair := range [][2][]float64{{ref.Rho, got.Rho}, {ref.Vx, got.Vx}, {ref.Vy, got.Vy}, {ref.Vz, got.Vz}} {
					if d := math.Abs(pair[0][i] - pair[1][i]); d != 0 {
						t.Fatalf("resized 3D solution differs at index %d by %g", i, d)
					}
				}
			}
		})
	}
}

// TestResizeRequiresFilterOff: with the fourth-order filter on, Resize
// refuses (seam-dependent applicability) and the job keeps running to a
// correct unresized completion.
func TestResizeRequiresFilterOff(t *testing.T) {
	const steps = 10
	cfg := resizeCfg2D(t, MethodLB, 2, 2)
	cfg.Par.Eps = 0.01
	ref, _, err := RunSequential2D(resizeCfg2D(t, MethodLB, 2, 2), steps)
	_ = ref
	if err != nil {
		t.Fatal(err)
	}
	job, progs := startJob2D(t, cfg, steps)
	err = job.Resize(decomp.UniformShape(3, 2, 0, 24, 16, 0))
	if err == nil || !strings.Contains(err.Error(), "filter") {
		t.Fatalf("resize with Eps != 0: err = %v, want filter precondition error", err)
	}
	// The failed resize resumed the job on its old decomposition.
	if got := job.P(); got != 4 {
		t.Fatalf("after refused resize P = %d, want 4", got)
	}
	if err := job.WaitDone(); err != nil {
		t.Fatal(err)
	}
	job.Shutdown()
	if got := progs.Gather(steps); got.ActiveRegions != 4 {
		t.Fatalf("gathered ActiveRegions = %d, want 4", got.ActiveRegions)
	}
}

// badDumps returns, by name, corruptions of a suspended dump set that the
// re-split must refuse: a field gone, an array one value short, one rank a
// step ahead. The originals are left intact (the job resumes from them).
func badDumps(states []*dump.State) map[string][]*dump.State {
	corrupt := func(edit func(st *dump.State)) []*dump.State {
		out := append([]*dump.State(nil), states...)
		cp := *states[len(states)-1]
		cp.Fields = maps.Clone(cp.Fields)
		edit(&cp)
		out[len(out)-1] = &cp
		return out
	}
	return map[string][]*dump.State{
		"lack field":      corrupt(func(st *dump.State) { delete(st.Fields, "vx") }),
		"values, want":    corrupt(func(st *dump.State) { st.Fields["rho"] = st.Fields["rho"][1:] }),
		"different steps": corrupt(func(st *dump.State) { st.Step++ }),
	}
}

// TestResizeFailureLeavesJobIntact: a dump set that fails validation makes
// Resize return an error that says why, without a panic; the decomposition
// is untouched, the job resumes at its old width and finishes in the
// undisturbed run's bits.
func TestResizeFailureLeavesJobIntact(t *testing.T) {
	const steps = 60
	for _, method := range []string{MethodLB, MethodFD} {
		ref, _, err := RunSequential2D(resizeCfg2D(t, method, 2, 2), steps)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"lack field", "values, want", "different steps"} {
			t.Run(method+" "+want, func(t *testing.T) {
				cfg := resizeCfg2D(t, method, 2, 2)
				job, progs := startJob2D(t, cfg, steps)
				resplit := job.resplit
				job.resplit = func(states []*dump.State, sh decomp.Shape) ([]*dump.State, error) {
					return resplit(badDumps(states)[want], sh)
				}
				err := job.Resize(decomp.UniformShape(3, 2, 0, 24, 16, 0))
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("resize over bad dumps: err = %v, want one containing %q", err, want)
				}
				if cfg.D.JX != 2 || cfg.D.JY != 2 || cfg.D.P() != 4 || job.P() != 4 {
					t.Fatalf("after the refused resize: decomposition %dx%d (%d ranks), job P = %d; want 2x2, 4, 4",
						cfg.D.JX, cfg.D.JY, cfg.D.P(), job.P())
				}
				if err := job.WaitDone(); err != nil {
					t.Fatal(err)
				}
				job.Shutdown()
				if ok, x, y, d := resultsEqual(ref, progs.Gather(steps), 0); !ok {
					t.Errorf("run differs from the reference at (%d,%d) by %g", x, y, d)
				}
			})
		}
	}
}

// TestResizeBackReusesRetiredRanks: a grow retires the job's Programs, a
// refused resize back onto their boxes leaves the retired set as it was,
// and the resize back that succeeds makes them the live ranks again, with
// the grown ones retired in their place. A snapshot in between is kept.
// Once every rank is done the job keeps neither, and the run ends in the
// sequential reference's bits.
func TestResizeBackReusesRetiredRanks(t *testing.T) {
	const steps = 30
	for _, method := range []string{MethodLB, MethodFD} {
		t.Run(method, func(t *testing.T) {
			ref, _, err := RunSequential2D(resizeCfg2D(t, method, 2, 2), steps)
			if err != nil {
				t.Fatal(err)
			}
			base := decomp.UniformShape(2, 2, 0, 24, 16, 0)
			// Each operation is held mid-run, so no rank is done before
			// the last one.
			hold := newStepHold(4, 8, 12, 16)
			job, jp := newTestJobOver(t, resizeCfg2D(t, method, 2, 2), steps, hold.over(HubFactory()))
			job.Start()
			retired := func() []*Program2D { r, _ := job.retired.([]*Program2D); return r }
			first := jp.progs
			hold.wait(job)
			if err := job.Resize(decomp.UniformShape(3, 2, 0, 24, 16, 0)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(retired(), first) {
				t.Fatal("the grow did not retire the job's Programs")
			}
			grown := jp.progs

			resplit := job.resplit
			job.resplit = func(states []*dump.State, sh decomp.Shape) ([]*dump.State, error) {
				return resplit(badDumps(states)["values, want"], sh)
			}
			hold.wait(job)
			if err := job.Resize(base); err == nil {
				t.Fatal("a resize over bad dumps succeeded")
			}
			job.resplit = resplit
			if !slices.Equal(retired(), first) || !slices.Equal(jp.progs, grown) {
				t.Fatal("the refused resize changed the retired or the live ranks")
			}

			hold.wait(job)
			if _, err := job.Snapshot(); err != nil {
				t.Fatal(err)
			}
			hold.wait(job)
			if err := job.Resize(base); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(jp.progs, first) || !slices.Equal(retired(), grown) {
				t.Error("the resize back did not make the retired Programs live and retire the grown ones")
			}
			if job.kept == nil {
				t.Error("the job dropped its snapshot before finishing")
			}
			if err := job.WaitDone(); err != nil {
				t.Fatal(err)
			}
			job.Shutdown()
			if job.retired != nil || job.kept != nil {
				t.Error("the finished job still keeps its retired ranks or its snapshot")
			}
			if ok, x, y, d := resultsEqual(ref, jp.Gather(steps), 0); !ok {
				t.Errorf("run differs from the reference at (%d,%d) by %g", x, y, d)
			}
		})
	}
}

// TestResplitFailureLeavesDecomposition3D calls the 3D re-split directly
// with each bad dump set: an error, no panic, cfg.D as it was.
func TestResplitFailureLeavesDecomposition3D(t *testing.T) {
	for _, method := range []string{MethodLB, MethodFD} {
		cfg := resizeCfg3D(t, method, 2, 1, 1)
		states, err := decompose(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := *cfg.D
		bad := badDumps(states)
		bad["out of range or repeated"] = []*dump.State{states[0], states[0]}
		bad["dumps for"] = states[:1]
		for want, set := range bad {
			_, _, err := resplit[*Program3D](cfg, set, decomp.UniformShape3D(2, 2, 1, 12, 10, 8), nil)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %q: err = %v", method, want, err)
			}
			if !reflect.DeepEqual(*cfg.D, before) {
				t.Fatalf("%s %q: the refused re-split changed cfg.D", method, want)
			}
		}
	}
}

// TestOpenFacesSurviveDumps: a channel whose x faces are open (neither
// periodic nor walled) ends in the serial run's bits when it is resized
// 2x2 -> 3x2 mid-run (dump at step 12), resized 2x2 -> 3x2 and straight
// back onto its retired 2x2 ranks, or suspended and resumed (dump at step
// 13), for both methods in both dimensions. The 3D channel is periodic in
// Z; its resize grows 2x2x1 -> 3x2x1.
func TestOpenFacesSurviveDumps(t *testing.T) {
	const steps = 20
	open2D := func(method string, jx, jy int) *Config2D {
		cfg := resizeCfg2D(t, method, jx, jy)
		cfg.D.PeriodicX = false
		return cfg
	}
	open3D := func(method string, jx, jy int) *Config3D {
		cfg := resizeCfg3D(t, method, jx, jy, 1)
		cfg.D.PeriodicX = false
		return cfg
	}
	type job struct {
		j      *Job
		gather func() [][]float64
	}
	for _, method := range []string{MethodLB, MethodFD} {
		cases := []struct {
			dim    string
			serial func() [][]float64
			start  func(factory TransportFactory) job
			grown  decomp.Shape
			base   decomp.Shape
		}{
			{"2D", func() [][]float64 {
				r, _, err := RunSequential2D(open2D(method, 1, 1), steps)
				if err != nil {
					t.Fatal(err)
				}
				return [][]float64{r.Rho, r.Vx, r.Vy}
			}, func(factory TransportFactory) job {
				j, jp := newTestJobOver(t, open2D(method, 2, 2), steps, factory)
				return job{j, func() [][]float64 { r := jp.Gather(steps); return [][]float64{r.Rho, r.Vx, r.Vy} }}
			}, decomp.UniformShape(3, 2, 0, 24, 16, 0), decomp.UniformShape(2, 2, 0, 24, 16, 0)},
			{"3D", func() [][]float64 {
				r, _, err := RunSequential3D(open3D(method, 1, 1), steps)
				if err != nil {
					t.Fatal(err)
				}
				return [][]float64{r.Rho, r.Vx, r.Vy, r.Vz}
			}, func(factory TransportFactory) job {
				sf, err := syncfile.New(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				j, jp, err := NewJob3D(open3D(method, 2, 2), factory, sf, steps)
				if err != nil {
					t.Fatal(err)
				}
				return job{j, func() [][]float64 { r := jp.Gather(steps); return [][]float64{r.Rho, r.Vx, r.Vy, r.Vz} }}
			}, decomp.UniformShape3D(3, 2, 1, 12, 10, 8), decomp.UniformShape3D(2, 2, 1, 12, 10, 8)},
		}
		for _, c := range cases {
			for _, op := range []struct {
				name  string
				holds []int
				do    func(j *Job, hold *stepHold) error
			}{
				{"resize", []int{11}, func(j *Job, hold *stepHold) error {
					hold.wait(j)
					return j.Resize(c.grown)
				}},
				{"resize back", []int{11, 15}, func(j *Job, hold *stepHold) error {
					hold.wait(j)
					if err := j.Resize(c.grown); err != nil {
						return err
					}
					retired := reflect.ValueOf(j.retired)
					hold.wait(j)
					if err := j.Resize(c.base); err != nil {
						return err
					}
					for rank, w := range j.workers {
						if w.Prog != retired.Index(rank).Interface() {
							t.Errorf("rank %d is not the Program the grow retired", rank)
						}
					}
					return nil
				}},
				{"suspend", []int{12}, func(j *Job, hold *stepHold) error {
					dumpStep := hold.wait(j)
					states, err := j.Suspend()
					if err != nil {
						return err
					}
					midRun(t, "suspend", states, dumpStep, steps)
					return j.Resume(states)
				}},
			} {
				t.Run(method+c.dim+"/"+op.name, func(t *testing.T) {
					want := c.serial()
					hold := newStepHold(op.holds...)
					run := c.start(hold.over(HubFactory()))
					run.j.Start()
					if err := op.do(run.j, hold); err != nil {
						t.Fatal(err)
					}
					if err := run.j.WaitDone(); err != nil {
						t.Fatal(err)
					}
					run.j.Shutdown()
					if i := sameBits(want, run.gather()); i >= 0 {
						t.Errorf("differs from the serial run at index %d", i)
					}
				})
			}
		}
	}
}

// TestResizeWritesEachValueOnce: a 3D grow, a shrink, and a grow back
// onto the ranks the first grow built, LB and FD. Until its new ranks are
// handed to their workers, each resize allocates at most their solver
// storage (what their geometry allocates) and a fixed allowance for the
// protocol (the pause round, dump headers, maps, each new rank's source
// runs); the warm grow reuses the retired ranks and allocates no storage
// at all. Every new rank computes on the arrays the re-split wrote, and
// the run ends in the sequential reference's bits. A re-split that cut
// into dump arrays of its own and copied them into fresh geometry
// allocated the state twice, and one that passed every value through a
// global field allocated that field.
func TestResizeWritesEachValueOnce(t *testing.T) {
	const steps, allowance = 20, 192 << 10
	const gx, gy, gz = 32, 24, 24
	config := func(method string) *Config3D {
		cfg := resizeCfg3D(t, method, 2, 1, 1)
		d, err := decomp.New3D(2, 1, 1, gx, gy, gz)
		if err != nil {
			t.Fatal(err)
		}
		d.PeriodicX, d.PeriodicZ = true, true
		cfg.D, cfg.Mask = d, fluid.ChannelMask3D(gx, gy, gz)
		return cfg
	}
	totalAlloc := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	for _, method := range []string{MethodLB, MethodFD} {
		t.Run(method, func(t *testing.T) {
			ref, _, err := RunSequential3D(config(method), steps)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config(method)
			sf, err := syncfile.New(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			hold := newStepHold(4, 9, 14)
			job, progs, err := NewJob3D(cfg, hold.over(HubFactory()), sf, steps)
			if err != nil {
				t.Fatal(err)
			}
			// The new ranks' arrays are compared with what the re-split
			// wrote as launch hands them to their workers: once a rank
			// steps, its solver swaps buffers.
			var wrote []*dump.State
			resplit, rebuild := job.resplit, job.rebuild
			job.resplit = func(states []*dump.State, sh decomp.Shape) ([]*dump.State, error) {
				out, err := resplit(states, sh)
				wrote = out
				return out, err
			}
			var rebuilt uint64
			job.rebuild = func(states []*dump.State) ([]Program, error) {
				built, err := rebuild(states)
				rebuilt = totalAlloc()
				for i, p := range built {
					names, arrays := p.(*Program3D).M.StateFields()
					for k, name := range names {
						if &arrays[k][0] != &wrote[states[i].Rank].Fields[name][0] {
							t.Errorf("rank %d computes on a %s array the re-split did not write", states[i].Rank, name)
						}
					}
				}
				return built, err
			}
			job.Start()
			grown := decomp.UniformShape3D(2, 2, 1, gx, gy, gz)
			for k, sh := range []decomp.Shape{grown, decomp.UniformShape3D(1, 2, 1, gx, gy, gz), grown} {
				// The ranks are held, so nothing else allocates while the
				// new ranks' storage is measured.
				hold.wait(job)
				next, err := decomp.NewShaped(sh, cfg.D.Stencil)
				if err != nil {
					t.Fatal(err)
				}
				next.PeriodicX, next.PeriodicZ = true, true
				warm := k == 2
				retired, _ := job.retired.([]*Program3D)
				var storage uint64 // the warm grow builds no geometry
				if !warm {
					before := totalAlloc()
					for rank := range next.P() {
						if _, err := cfg.over(next).geometry(rank); err != nil {
							t.Fatal(err)
						}
					}
					storage = totalAlloc() - before
				}
				before := totalAlloc()
				if err := job.Resize(sh); err != nil {
					t.Fatal(err)
				}
				used := rebuilt - before
				t.Logf("resize to %d ranks (warm %v): %d B, storage %d B", next.P(), warm, used, storage)
				if used > storage+allowance {
					t.Errorf("resize to %d ranks allocated %d B, want at most %d (storage) + %d",
						cfg.D.P(), used, storage, allowance)
				}
				for rank, p := range progs.progs {
					if reused := len(retired) == next.P() && p == retired[rank]; reused != warm {
						t.Errorf("resize %d: rank %d reused a retired Program: %v, want %v", k, rank, reused, warm)
					}
				}
			}
			if err := job.WaitDone(); err != nil {
				t.Fatal(err)
			}
			job.Shutdown()
			got := progs.Gather(steps)
			if i := sameBits([][]float64{ref.Rho, ref.Vx, ref.Vy, ref.Vz}, [][]float64{got.Rho, got.Vx, got.Vy, got.Vz}); i >= 0 {
				t.Errorf("resized run differs from the reference at index %d", i)
			}
		})
	}
}

// TestResizeRefusalsResumeAtOldWidth: a resize the re-split refuses — a
// shape over another grid, dumps of another method or geometry, a new
// rank whose geometry cannot be built, a decomposition with a deactivated
// subregion, a shape decomp refuses, a 3D shape for a 2D job — returns
// why and resumes the job at its old width, its live and its retired
// ranks as they were. The job, grown once before (but the deactivated
// one, which no resize accepts), ends in the sequential reference's bits.
func TestResizeRefusalsResumeAtOldWidth(t *testing.T) {
	const steps = 20
	cases := []struct {
		want    string
		sh      decomp.Shape
		walled  bool                       // subregion (1, 1) solid and deactivated
		corrupt func(st *dump.State)       // applied to a copy of the last dump
		during  func(cfg *Config2D) func() // around the resize; returns the undo
	}{
		{want: "grid is", sh: decomp.UniformShape(3, 2, 0, 24, 18, 0)},
		{want: "dump method", sh: decomp.UniformShape(4, 2, 0, 24, 16, 0),
			corrupt: func(st *dump.State) { st.Method = "xx" }},
		{want: "dump geometry", sh: decomp.UniformShape(4, 2, 0, 24, 16, 0),
			corrupt: func(st *dump.State) { st.NX++ }},
		{want: "building rank", sh: decomp.UniformShape(4, 2, 0, 24, 16, 0),
			during: func(cfg *Config2D) func() {
				nu := cfg.Par.Nu
				cfg.Par.Nu = 0
				return func() { cfg.Par.Nu = nu }
			}},
		{want: "deactivated", sh: decomp.UniformShape(3, 2, 0, 24, 16, 0), walled: true},
		{want: "shape needs x and y spans", sh: decomp.Shape{X: []int{24}}},
		{want: "z spans", sh: decomp.Shape{X: []int{12, 12}, Y: []int{16}, Z: []int{1}}},
	}
	config := func(method string, walled bool) *Config2D {
		cfg := resizeCfg2D(t, method, 2, 2)
		if walled {
			for y := 8; y < 16; y++ {
				for x := 12; x < 24; x++ {
					cfg.Mask.Set(x, y, fluid.Wall)
				}
			}
			cfg.D.DeactivateWalls(cfg.Mask.Solid)
		}
		return cfg
	}
	for _, method := range []string{MethodLB, MethodFD} {
		for _, c := range cases {
			t.Run(method+" "+c.want, func(t *testing.T) {
				ref, _, err := RunSequential2D(config(method, c.walled), steps)
				if err != nil {
					t.Fatal(err)
				}
				cfg := config(method, c.walled)
				holds := []int{8}
				if !c.walled {
					holds = []int{4, 8}
				}
				hold := newStepHold(holds...)
				job, jp := newTestJobOver(t, cfg, steps, hold.over(HubFactory()))
				job.Start()
				if !c.walled {
					hold.wait(job)
					if err := job.Resize(decomp.UniformShape(3, 2, 0, 24, 16, 0)); err != nil {
						t.Fatal(err)
					}
				}
				width, live := job.P(), jp.progs
				retired, _ := job.retired.([]*Program2D)
				resplit := job.resplit
				job.resplit = func(states []*dump.State, sh decomp.Shape) ([]*dump.State, error) {
					if c.corrupt != nil {
						bad := slices.Clone(states)
						st := *states[len(states)-1]
						c.corrupt(&st)
						bad[len(bad)-1] = &st
						states = bad
					}
					return resplit(states, sh)
				}
				hold.wait(job)
				undo := func() {}
				if c.during != nil {
					undo = c.during(cfg)
				}
				err = job.Resize(c.sh)
				undo()
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("resize: err = %v, want one containing %q", err, c.want)
				}
				now, _ := job.retired.([]*Program2D)
				if job.P() != width || cfg.D.P() != width || !slices.Equal(jp.progs, live) || !slices.Equal(now, retired) {
					t.Fatalf("after the refused resize: %d ranks (decomposition %d), want %d; live ranks kept %v, retired kept %v",
						job.P(), cfg.D.P(), width, slices.Equal(jp.progs, live), slices.Equal(now, retired))
				}
				if err := job.WaitDone(); err != nil {
					t.Fatal(err)
				}
				job.Shutdown()
				if ok, x, y, d := resultsEqual(ref, jp.Gather(steps), 0); !ok {
					t.Errorf("run differs from the reference at (%d,%d) by %g", x, y, d)
				}
			})
		}
	}
}
