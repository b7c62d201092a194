package farm

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/decomp"
	"repro/internal/dump"
)

// stateWorkload is a nullWorkload that holds one canned rank state per
// rank of its current decomposition, so the checkpoint path has dumps to
// persist and reload without a solver running.
type stateWorkload struct {
	nullWorkload
	states []*dump.State
}

func (w *stateWorkload) split(hosts []*cluster.Host) error {
	w.states = make([]*dump.State, len(hosts))
	for r := range w.states {
		w.states[r] = &dump.State{Rank: r, Step: 7, Method: "lb2d", NX: 1, NY: 1, NZ: 1,
			Fields: map[string][]float64{"rho": {1}}}
	}
	return nil
}

func (w *stateWorkload) Start(hosts []*cluster.Host) error                  { return w.split(hosts) }
func (w *stateWorkload) Resize(_ decomp.Shape, hosts []*cluster.Host) error { return w.split(hosts) }
func (w *stateWorkload) Checkpoint() ([]*dump.State, error)                 { return w.states, nil }
func (w *stateWorkload) Restore(states []*dump.State) error                 { w.states = states; return nil }

// stormFarm is the seeded farm both invariant tests run: a Priority/EASY
// scheduler on the mixed paper pool whose scenario script drives a job
// through every transition the scheduler has. On the one-minute grid:
//
//	0m  a-wide, b-quick, c-box (3D, pinned grid), d-victim placed
//	1m  a host of a-wide reclaimed: one rank migrates
//	2m  c-box grows 4 -> 6
//	3m  e-urgent arrives and is placed by preempting d-victim
//	4m  c-box shrinks 6 -> 4
//	5m  f-head (whole pool, so no EASY shadow is computable while a user
//	    sits at a host) arrives and blocks; g-fill backfills behind it
//	6m  a host of c-box reclaimed and the 1m user leaves, both events
//	    still undrained when tick runs
//	8m  every free host and a host of a-wide reclaimed: nowhere to
//	    migrate, a-wide falls back to suspension
//	10m every user leaves; the farm runs dry, h-late arriving at 30m
//
// tick runs on the scheduling goroutine after the script's actions of
// each scenario instant.
func stormFarm(t *testing.T, tick func(s *Farm, vt time.Duration)) *Farm {
	t.Helper()
	pool := idlePool()
	s := newFarm(pool, Priority, 7)
	submit := func(spec JobSpec, w Workload) {
		t.Helper()
		if _, err := s.Submit(spec, w); err != nil {
			t.Fatal(err)
		}
	}
	submit(JobSpec{ID: "a-wide", Method: "lb2d", JX: 4, JY: 3, Side: 40, Steps: 30000,
		Priority: 1, User: "alice", Weight: 2}, nil)
	submit(JobSpec{ID: "b-quick", Method: "fd2d", JX: 1, JY: 1, Side: 40, Steps: 1000, Priority: 1}, nil)
	submit(JobSpec{ID: "c-box", Method: "lb3d", JX: 2, JY: 2, JZ: 1, Side: 16, GX: 32, GY: 32, GZ: 16,
		Steps: 6000, Priority: 1}, &stateWorkload{})
	submit(JobSpec{ID: "d-victim", Method: "lb2d", JX: 3, JY: 2, Side: 40, Steps: 30000}, &stateWorkload{})
	submit(JobSpec{ID: "e-urgent", Method: "lb2d", JX: 2, JY: 2, Side: 40, Steps: 6000,
		Priority: 9, Submit: 3 * time.Minute}, nil)
	submit(JobSpec{ID: "f-head", Method: "lb2d", JX: 5, JY: 5, Side: 40, Steps: 3000,
		Priority: 1, Submit: 5 * time.Minute}, nil)
	submit(JobSpec{ID: "g-fill", Method: "fd2d", JX: 1, JY: 1, Side: 40, Steps: 3000,
		Submit: 5 * time.Minute}, nil)
	submit(JobSpec{ID: "h-late", Method: "fd2d", JX: 1, JY: 1, Side: 40, Steps: 1000,
		Submit: 30 * time.Minute}, nil)

	hostOf := func(id string, rank int) *cluster.Host {
		t.Helper()
		for _, js := range s.running {
			if js.spec.ID == id {
				return js.res.Hosts[rank]
			}
		}
		t.Fatalf("script: %s is not running", id)
		return nil
	}
	resize := func(vt time.Duration, id string, n int) {
		t.Helper()
		if err := s.resizeByID(id, n, vt); err != nil {
			t.Fatalf("script: resize %s to %d at %v: %v", id, n, vt, err)
		}
	}
	var firstUser *cluster.Host
	s.scenarioEvery = time.Minute
	s.scenario = func(vt time.Duration, c *cluster.Cluster) {
		switch vt {
		case 1 * time.Minute:
			firstUser = hostOf("a-wide", 0)
			c.Reclaim(firstUser)
		case 2 * time.Minute:
			resize(vt, "c-box", 6)
		case 4 * time.Minute:
			resize(vt, "c-box", 4)
		case 6 * time.Minute:
			c.Reclaim(hostOf("c-box", 1))
			c.UserGone(firstUser)
		case 8 * time.Minute:
			for _, h := range c.Hosts {
				if h.Assigned() < 0 && !h.Reclaimed() {
					c.Reclaim(h)
				}
			}
			c.Reclaim(hostOf("a-wide", 2))
		case 10 * time.Minute:
			for _, h := range c.Hosts {
				if h.Reclaimed() {
					c.UserGone(h)
				}
			}
		}
		tick(s, vt)
	}
	return s
}

// TestCheckpointFixedPoint is the save/restore pairing invariant:
// checkpointing a farm, restoring it and checkpointing the restored farm
// again must write the same manifest (apart from the generation
// directory's name). A field recordJob or Cluster.Snapshot writes and the
// restore side drops differs between the two; a field the save side
// never writes is zero in every record of the first — and the fixture
// holds a job in every phase, weighted, resized, preempted, migrated,
// backfilled and late-arriving jobs, reclaimed hosts and undrained
// cluster events precisely so that no field of the five record types is
// zero everywhere for any other reason. A field added to one of them
// fails here until the fixture exercises it and both sides carry it.
func TestCheckpointFixedPoint(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	s1 := stormFarm(t, func(_ *Farm, vt time.Duration) {
		if vt == 6*time.Minute {
			crash()
		}
	})
	s1.ckptDir = dir1 // the cancel saves there
	if _, err := s1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled at the checkpoint tick", err)
	}
	m1, err := ckpt.Load(dir1)
	if err != nil {
		t.Fatal(err)
	}

	reg := WorkloadRegistry{}
	for _, jr := range m1.Jobs {
		if len(jr.StateSteps) > 0 {
			reg[jr.ID] = func(JobSpec) (Workload, error) { return &stateWorkload{}, nil }
		}
	}
	// The restored farm saves again at its Run's first check: its
	// context is canceled before Run.
	s2, err := Restore(dir1, cluster.NewPaperCluster(), reg, WithCheckpoint(dir2, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("restored Run with a canceled context returned %v, want context.Canceled", err)
	}
	m2, err := ckpt.Load(dir2)
	if err != nil {
		t.Fatal(err)
	}

	nonZero := make(map[string]bool)
	diffRecords(t, "Manifest", reflect.ValueOf(*m1), reflect.ValueOf(*m2), nonZero)
	for _, f := range slices.Sorted(maps.Keys(nonZero)) {
		if !nonZero[f] {
			t.Errorf("%s is zero in every record of the checkpoint: the save side does not write it, or the fixture never exercises it", f)
		}
	}
	m2.StatesDir = m1.StatesDir
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("checkpoint of the restored farm differs from the checkpoint it was restored from")
	}
}

// diffRecords walks two values of one type in lockstep, reports every
// leaf that differs under its field path, and notes in nonZero, per
// struct field ("JobRecord.Migrations"), whether any instance in a holds
// a non-zero value.
func diffRecords(t *testing.T, path string, a, b reflect.Value, nonZero map[string]bool) {
	t.Helper()
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i).Name
			key := a.Type().Name() + "." + f
			nonZero[key] = nonZero[key] || !a.Field(i).IsZero()
			if key != "Manifest.StatesDir" {
				diffRecords(t, path+"."+f, a.Field(i), b.Field(i), nonZero)
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			t.Errorf("%s: %d entries before the restore, %d after", path, a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			label := fmt.Sprint(i)
			if a.Index(i).Kind() == reflect.Struct {
				if id := a.Index(i).FieldByName("ID"); id.IsValid() {
					label = id.String()
				}
			}
			diffRecords(t, path+"["+label+"]", a.Index(i), b.Index(i), nonZero)
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			t.Errorf("%s: %v before the restore, %v after", path, a, b)
		}
	}
}

// shadowJob is what the event stream alone says about one job.
type shadowJob struct {
	phase Status
	hosts []string // by rank; nil unless running
}

// foldEvent applies one event to the shadow farm.
func foldEvent(shadow map[string]*shadowJob, ev Event) {
	set := func(id string, phase Status, hosts []string) {
		shadow[id] = &shadowJob{phase: phase, hosts: append([]string(nil), hosts...)}
	}
	switch e := ev.(type) {
	case JobQueued:
		set(e.ID, StatusQueued, nil)
	case JobPlaced:
		set(e.ID, StatusRunning, e.Hosts)
	case JobBackfilled:
		set(e.ID, StatusRunning, e.Hosts)
	case JobResized:
		set(e.ID, StatusRunning, e.Hosts)
	case JobMigrated:
		for i, rank := range e.Ranks {
			shadow[e.ID].hosts[rank] = e.Hosts[i]
		}
	case JobPreempted:
		set(e.ID, StatusQueued, nil)
	case JobFinished:
		set(e.ID, StatusFinished, nil)
	}
}

// checkShadow compares the scheduler's own bookkeeping with the shadow
// folded from its events: every job in the phase the events say, every
// running job on the hosts they say, and no job the events never
// announced anywhere but pending.
func checkShadow(t *testing.T, s *Farm, shadow map[string]*shadowJob, when string) {
	t.Helper()
	seen := 0
	check := func(list []*jobState, phase Status) {
		t.Helper()
		for _, js := range list {
			id := js.spec.ID
			var hosts []string
			if js.res != nil {
				hosts = hostNames(js.res.Hosts)
			}
			sh := shadow[id]
			if sh == nil {
				if phase != StatusPending {
					t.Errorf("%s: job %s is %v in the scheduler, but no event ever announced it", when, id, phase)
				}
				continue
			}
			seen++
			if sh.phase != phase {
				t.Errorf("%s: job %s is %v in the scheduler, %v by the event stream", when, id, phase, sh.phase)
			} else if !reflect.DeepEqual(hosts, sh.hosts) {
				t.Errorf("%s: job %s (%v) holds hosts %v in the scheduler, %v by the event stream",
					when, id, phase, hosts, sh.hosts)
			}
		}
	}
	check(s.pending, StatusPending)
	check(s.queue, StatusQueued)
	check(s.running, StatusRunning)
	check(s.finished, StatusFinished)
	if seen != len(shadow) {
		t.Errorf("%s: the event stream announced %d jobs, the scheduler holds %d of them", when, len(shadow), seen)
	}
}

// TestEventsSufficient is the event-completeness invariant: the event
// stream alone is enough to reconstruct every job's phase and placement.
// A shadow farm folded from the events is compared with the scheduler's
// own lists at every scenario tick of the storm script and after Run, so
// a path that moves a job or a rank without announcing it fails at the
// next tick, naming the job.
func TestEventsSufficient(t *testing.T) {
	shadow := make(map[string]*shadowJob)
	counts := make(map[string]int)
	var events func() []Event
	fold := func() {
		for _, ev := range events() {
			counts[fmt.Sprintf("%T", ev)]++
			foldEvent(shadow, ev)
		}
	}
	s := stormFarm(t, func(s *Farm, vt time.Duration) {
		fold()
		if !t.Failed() { // the first diverging tick names the culprit; later ones repeat it
			checkShadow(t, s, shadow, fmt.Sprintf("tick %v", vt))
		}
	})
	events = tap(t, s)
	sum, err := s.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fold()
	checkShadow(t, s, shadow, "after Run")
	if len(sum.Jobs) != 8 {
		t.Errorf("%d jobs finished, want 8", len(sum.Jobs))
	}
	// The script must keep reaching every transition, or the comparison
	// above proves less than it claims.
	for ev, min := range map[string]int{
		"farm.JobQueued": 8, "farm.JobPlaced": 1, "farm.JobBackfilled": 1,
		"farm.JobPreempted": 2, "farm.JobMigrated": 2, "farm.JobResized": 2,
		"farm.JobFinished": 8, "farm.HostReclaimed": 3, "farm.EASYDegraded": 1,
	} {
		if counts[ev] < min {
			t.Errorf("storm script produced %d %s events, want at least %d", counts[ev], ev, min)
		}
	}
}
