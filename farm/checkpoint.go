package farm

import (
	"context"
	"fmt"
	"maps"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/decomp"
	"repro/internal/dump"
)

// stopped reports how the event loop ends at this check, or nil when it
// goes on. Once Run's context is canceled the farm is persisted into its
// checkpoint directory first, when one is configured, so the run is
// restorable. The error wraps the context's cause, and a failed save's
// error too.
func (f *Farm) stopped(ctx context.Context) error {
	if ctx.Err() == nil {
		return nil
	}
	err := fmt.Errorf("farm: run canceled: %w", context.Cause(ctx))
	if f.ckptDir != "" {
		if cerr := f.checkpoint(); cerr != nil {
			err = fmt.Errorf("%w (checkpoint on cancel: %w)", err, cerr)
		}
	}
	return err
}

// WorkloadFactory rebuilds the functional side of one restored job from
// its spec: for a real simulation, a fresh core.Job wrapped in a
// CoreWorkload (whose rank states Restore then loads from the checkpoint
// and whose next Resume rebuilds the workers through the dump path).
//
// The spec passed in is the job's EFFECTIVE spec: for a job that was
// resized mid-run it carries the current (post-resize) lattice in
// JX/JY/JZ with the original global grid pinned in GX/GY/GZ, so a
// factory that sizes its simulation from the spec builds a job matching
// the checkpointed rank dumps. Factories must honor spec.Grid() and
// spec.Ranks() rather than assuming the submitted geometry.
type WorkloadFactory func(spec JobSpec) (Workload, error)

// WorkloadRegistry maps job IDs to factories, the hook Restore uses to
// reconstruct Workloads from the specs in a checkpoint manifest. Jobs
// without an entry restore as spec-only replays — but only when the
// checkpoint holds no rank states for them; dropping a real
// simulation's state on the floor is an error, not a default.
type WorkloadRegistry map[string]WorkloadFactory

// checkpoint persists the whole farm into its checkpoint directory —
// every job's accounting and rank states, the queue order, the RNG
// state, the fair-share credit and a full cluster snapshot, versioned
// under ckpt.Version — committed atomically, so a crash at any point
// leaves the previous complete checkpoint restorable by Restore. Running
// jobs are checkpointed through Workload.Checkpoint — the suspend
// protocol followed by an immediate resume, so they keep their hosts and
// lose no placement — and their dump files are written one at a time
// with the WithCheckpoint gap between them (the section-5.2 etiquette
// for the shared file server). Each save writes its states into a fresh
// generation directory and commits by renaming the manifest last;
// superseded generations are pruned after the commit.
//
// Only the event loop calls it: at WithCheckpoint's interval, and once
// more when Run's context is canceled. It first retires every completion
// already due, so the checkpoint lands on a settled round boundary;
// beyond that the farm's virtual state is untouched, which is why a
// checkpointed run stays bit-identical to an undisturbed one.
func (f *Farm) checkpoint() error {
	dir, t := f.ckptDir, f.now()
	if err := f.complete(t); err != nil {
		return fmt.Errorf("farm: checkpoint: %w", err)
	}
	gen := ckpt.StatesDirName(f.ckptSeq + 1)
	m := &ckpt.Manifest{
		SavedAt:      t,
		Start:        f.start,
		Policy:       f.policy.String(),
		Backfill:     f.backfill.String(),
		RNG:          f.src.State(),
		Reclaims:     f.reclaims,
		EASYDegraded: f.easyDegraded,
		ServedByUser: maps.Clone(f.servedByUser),
		StatesDir:    gen,
		Cluster:      f.cluster.Snapshot(),
	}

	seq := dump.NewSequencer(f.ckptGap)
	add := func(js *jobState, phase string) error {
		if err := ckpt.CheckJobID(js.spec.ID); err != nil {
			return err
		}
		jr := recordJob(js, phase)
		if js.Started && (phase == ckpt.PhaseQueued || phase == ckpt.PhaseRunning) {
			states, err := js.work.Checkpoint()
			if err != nil {
				return fmt.Errorf("farm: checkpoint %s: %w", js.spec.ID, err)
			}
			if len(states) > 0 {
				if err := ckpt.SaveStates(dir, gen, js.spec.ID, states, seq); err != nil {
					return err
				}
				jr.StateSteps = make([]int, len(states))
				for i, st := range states {
					jr.StateSteps[i] = st.Step
				}
			}
		}
		m.Jobs = append(m.Jobs, jr)
		return nil
	}

	// A Status's name is the manifest's phase (ckpt.PhasePending, ...).
	for st, jobs := range f.byPhase() {
		for _, js := range jobs {
			if err := add(js, Status(st).String()); err != nil {
				return err
			}
		}
	}
	if err := ckpt.Save(dir, m); err != nil {
		return err
	}
	f.ckptSeq++
	// The manifest now points at the new generation; drop superseded and
	// never-committed ones so the directory holds exactly one save.
	if err := ckpt.Prune(dir, gen); err != nil {
		return err
	}
	f.emit(CheckpointSaved{T: t, Gen: gen, Jobs: len(m.Jobs)})
	return nil
}

// Restore rebuilds a farm from a checkpoint directory written by a
// previous farm's Run (a WithCheckpoint interval save, or the save when
// its context was canceled): the cluster — an identically shaped,
// typically freshly built pool — is overwritten from the manifest's
// snapshot, every job is reconstructed in its checkpointed phase (with
// handles: Farm.Job finds them, and finished jobs already carry their
// metrics), real workloads are rebuilt through the registry with their
// rank states reloaded from disk, running jobs resume their workers on
// their recorded hosts, and the clock, RNG and fair-share credit
// continue where the dead coordinator stopped — so the restored Run
// finishes bit-identically to one that never crashed.
//
// Policy, backfill mode and RNG state belong to the manifest, so
// WithPolicy, WithBackfill and WithSeed are rejected here, like any
// invalid option, before the pool is touched. Scenario, autoscaler,
// timer and checkpoint options are not persisted (function values and
// operator-local paths); re-attach them exactly as originally
// configured, or the restored run's virtual-time grid — and with it the
// bit-identity guarantee — changes. Subscriptions do not survive a
// coordinator either: SubscribeBuffered on the restored farm before Run
// to re-attach; the stream continues with exactly the events the dead
// coordinator had not yet emitted. A restored farm holds the
// checkpoint's jobs and no others: every checkpoint is written after
// Run has closed its farm, so Submit fails with ErrClosed.
//
// Corrupt, partial or mismatched checkpoints fail with descriptive
// errors before the pool is touched: a record that does not fit its
// job's own spec (lattice, spans, placement or rank-state count), a
// placement the manifest's cluster snapshot does not hold, rank states
// with no workload factory, and a missing, surplus or torn rank dump.
// Only a workload factory, Restore or Resume error fails after the
// snapshot is applied; then the cluster and any partially resumed
// workloads should be discarded.
func Restore(dir string, c *cluster.Cluster, reg WorkloadRegistry, opts ...Option) (*Farm, error) {
	// The manifest-owned knobs start at values no option writes, so a
	// probe shows whether an option set them.
	probe := &Farm{policy: -1, backfill: -1}
	for _, o := range opts {
		o(probe)
	}
	if err := probe.validate(); err != nil {
		return nil, err
	}
	if probe.policy != -1 || probe.backfill != -1 || probe.src != nil {
		return nil, fmt.Errorf("farm: restore: policy, backfill and seed come from the checkpoint manifest; drop WithPolicy/WithBackfill/WithSeed")
	}
	m, err := ckpt.Load(dir)
	if err != nil {
		return nil, err
	}
	pol, err := ParsePolicy(m.Policy)
	if err != nil {
		return nil, fmt.Errorf("farm: restore: %w", err)
	}
	bf, err := ParseBackfill(m.Backfill)
	if err != nil {
		return nil, fmt.Errorf("farm: restore: %w", err)
	}
	if got := m.Start + m.SavedAt; m.Cluster.Now != got {
		return nil, fmt.Errorf("farm: restore: manifest clock disagrees with cluster snapshot (%v + %v != %v)",
			m.Start, m.SavedAt, m.Cluster.Now)
	}
	placed := make(map[string]cluster.HostState, len(m.Cluster.Hosts))
	for _, hs := range m.Cluster.Hosts {
		placed[hs.Name] = hs
	}
	jobs := make([]*jobState, len(m.Jobs))
	states := make([][]*dump.State, len(m.Jobs))
	for i, jr := range m.Jobs {
		if jobs[i], err = checkRecord(jr, placed); err != nil {
			return nil, err
		}
		if len(jr.StateSteps) == 0 {
			continue
		}
		if reg[jr.ID] == nil {
			return nil, fmt.Errorf(
				"farm: restore %s: checkpoint holds %d rank states but the registry has no workload factory for it",
				jr.ID, len(jr.StateSteps))
		}
		if states[i], err = ckpt.LoadStates(dir, m.StatesDir, jr.ID, jr.StateSteps); err != nil {
			return nil, err
		}
	}
	if err := c.RestoreSnapshot(m.Cluster); err != nil {
		return nil, fmt.Errorf("farm: restore: %w", err)
	}

	f := &Farm{policy: pol, backfill: bf, timer: ComputeTimer, src: NewRNG(0)}
	for _, o := range opts {
		o(f)
	}
	f.prepare(c)
	f.src.SetState(m.RNG)
	f.start = m.Start
	f.restored = true
	f.closed = true // every checkpoint is written once Run has closed the farm
	f.reclaims = m.Reclaims
	f.easyDegraded = m.EASYDegraded
	if m.StatesDir != "" {
		// Continue the save-generation numbering past the restored-from
		// checkpoint, so this farm's own saves never collide with it.
		seq, err := ckpt.ParseStatesDir(m.StatesDir)
		if err != nil {
			return nil, err
		}
		f.ckptSeq = seq
	}
	maps.Copy(f.servedByUser, m.ServedByUser)

	for i, jr := range m.Jobs {
		js := jobs[i]
		if err := rebuildJob(jr, js, states[i], c, reg); err != nil {
			return nil, err
		}
		// Restore replays bookkeeping the original run already announced:
		// each job's queue/run/finish events live in the pre-checkpoint
		// stream, and re-emitting them here would double-count.
		switch jr.Phase {
		case ckpt.PhasePending:
			f.arrive(js)
		case ckpt.PhaseQueued:
			f.queue = append(f.queue, js)
		case ckpt.PhaseRunning:
			f.running = append(f.running, js)
		case ckpt.PhaseFinished:
			f.finished = append(f.finished, js)
		}
	}
	for st, jobs := range f.byPhase() {
		for _, js := range jobs {
			j := newJob(f, js.spec.ID)
			j.status = Status(st)
			if j.status == StatusFinished {
				j.rec, j.hasRec = metricsJob(js), true
				close(j.done)
			}
			f.jobs[js.spec.ID] = j
		}
	}
	return f, nil
}

// checkRecord rebuilds a job's state from its manifest record and checks
// the record through the job's own spec: the spec and its current
// lattice are valid, the spans fit them, a placement or a set of rank
// states has one entry per current rank, and placed (the manifest's
// cluster snapshot, by host name) assigns each placed host to its rank.
func checkRecord(jr ckpt.JobRecord, placed map[string]cluster.HostState) (*jobState, error) {
	spec := JobSpec{
		ID: jr.ID, Method: jr.Method,
		JX: jr.JX, JY: jr.JY, JZ: jr.JZ, Side: jr.Side, Steps: jr.Steps,
		GX: jr.GridX, GY: jr.GridY, GZ: jr.GridZ,
		Priority: jr.Priority, User: jr.User, Weight: jr.Weight, Submit: jr.Submit,
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("farm: restore: %w", err)
	}
	js := &jobState{spec: spec, shape: decomp.Shape{X: jr.SpansX, Y: jr.SpansY, Z: jr.SpansZ}, Accounting: jr.Accounting}
	espec := js.espec()
	if err := espec.Validate(); err != nil {
		return nil, fmt.Errorf("farm: restore %s: current lattice: %w", jr.ID, err)
	}
	if err := checkShape(espec, js.shape); err != nil {
		return nil, fmt.Errorf("farm: restore: %w", err)
	}
	n := espec.Ranks()
	if jr.Phase == ckpt.PhaseRunning && len(jr.Hosts) != n {
		return nil, fmt.Errorf("farm: restore %s: running job records %d hosts for %d ranks", jr.ID, len(jr.Hosts), n)
	}
	if k := len(jr.StateSteps); k != 0 && k != n {
		return nil, fmt.Errorf("farm: restore %s: %d state steps for %d ranks", jr.ID, k, n)
	}
	for rank, name := range jr.Hosts {
		hs, ok := placed[name]
		if !ok {
			return nil, fmt.Errorf("farm: restore %s: placement names unknown host %q", jr.ID, name)
		}
		if hs.Assigned != rank || hs.Owner != jr.ID {
			return nil, fmt.Errorf(
				"farm: restore %s: host %s assigned to rank %d of %q, manifest says rank %d of %q",
				jr.ID, name, hs.Assigned, hs.Owner, rank, jr.ID)
		}
	}
	return js, nil
}

// rebuildJob rebuilds a checked job's workload from the registry (fed
// the effective spec) and its loaded rank states, and re-establishes a
// running job's reservation on the snapshot-restored hosts.
func rebuildJob(jr ckpt.JobRecord, js *jobState, states []*dump.State, c *cluster.Cluster, reg WorkloadRegistry) error {
	if f := reg[jr.ID]; f != nil {
		var err error
		if js.work, err = f(js.espec()); err != nil {
			return fmt.Errorf("farm: restore %s: workload factory: %w", jr.ID, err)
		}
	}
	if js.work == nil {
		if len(states) > 0 {
			return fmt.Errorf("farm: restore %s: workload factory returned no workload for %d rank states", jr.ID, len(states))
		}
		js.work = nullWorkload{}
	}
	if len(states) > 0 {
		if err := js.work.Restore(states); err != nil {
			return fmt.Errorf("farm: restore %s: %w", jr.ID, err)
		}
	}
	if jr.Phase != ckpt.PhaseRunning {
		return nil
	}

	hosts := make([]*cluster.Host, len(jr.Hosts))
	for rank, name := range jr.Hosts {
		hosts[rank] = c.ByName(name)
	}
	js.res = &cluster.Reservation{Owner: jr.ID, Hosts: hosts}
	if err := js.work.Resume(hosts); err != nil {
		return fmt.Errorf("farm: restore %s: resuming workload: %w", jr.ID, err)
	}
	return nil
}

// recordJob converts a jobState into its manifest record (StateSteps is
// filled by the caller once the states are persisted).
func recordJob(js *jobState, phase string) ckpt.JobRecord {
	jr := ckpt.JobRecord{
		ID: js.spec.ID, Method: js.spec.Method,
		JX: js.spec.JX, JY: js.spec.JY, JZ: js.spec.JZ,
		Side: js.spec.Side, Steps: js.spec.Steps,
		GridX: js.spec.GX, GridY: js.spec.GY, GridZ: js.spec.GZ,
		Priority: js.spec.Priority, User: js.spec.User,
		Weight: js.spec.Weight, Submit: js.spec.Submit,

		Phase:      phase,
		Accounting: js.Accounting,
		SpansX:     js.shape.X, SpansY: js.shape.Y, SpansZ: js.shape.Z,
	}
	if phase == ckpt.PhaseRunning {
		jr.Hosts = make([]string, len(js.res.Hosts))
		for rank, h := range js.res.Hosts {
			jr.Hosts[rank] = h.Name
		}
	}
	return jr
}
