package sched

import (
	"errors"
	"fmt"
	"maps"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/dump"
)

// ErrInterrupted is returned by Run when Interrupt aborts the event loop.
var ErrInterrupted = errors.New("sched: run interrupted")

// Interrupt aborts a running event loop: Run returns ErrInterrupted at
// its next check, abandoning the in-memory farm the way a coordinator
// crash would. Crash-recovery tests and experiments pair it with
// Checkpoint — persist the farm, interrupt the loop, discard the
// scheduler, and Restore a fresh one from disk. Safe from any goroutine.
func (s *Scheduler) Interrupt() {
	s.mu.Lock()
	s.interrupted = true
	s.mu.Unlock()
	s.wakeup()
}

// InterruptCheckpoint aborts the event loop like Interrupt, but asks it
// to persist the farm into CheckpointDir first (when one is configured)
// so the abandoned run is restorable. This is the graceful-cancellation
// path of the public farm API: a canceled context checkpoints, then
// interrupts. Safe from any goroutine; the checkpoint itself runs on
// the scheduling goroutine at the loop's next interrupt check.
func (s *Scheduler) InterruptCheckpoint() {
	s.mu.Lock()
	s.interrupted = true
	s.ckptOnInterrupt = true
	s.mu.Unlock()
	s.wakeup()
}

// ClearInterrupt discards a pending interrupt request no Run consumed.
// The farm API calls it after Run returns when the run's context was
// canceled: its cancellation watcher may have fired just as the loop
// exited on its own, and the stale request must not abort the next Run.
func (s *Scheduler) ClearInterrupt() {
	s.mu.Lock()
	s.interrupted = false
	s.ckptOnInterrupt = false
	s.mu.Unlock()
}

// interruptExit finishes an interrupted Run: when InterruptCheckpoint
// requested a final save and a checkpoint directory is configured, the
// farm is persisted before the loop returns ErrInterrupted. The request
// is consumed — the flags reset — so a later Run of the same scheduler
// is not poisoned by an interrupt it already honored.
func (s *Scheduler) interruptExit() error {
	s.mu.Lock()
	want := s.ckptOnInterrupt
	s.interrupted = false
	s.ckptOnInterrupt = false
	s.mu.Unlock()
	if want && s.CheckpointDir != "" {
		if err := s.Checkpoint(s.CheckpointDir); err != nil {
			// Keep the sentinel in the chain: callers branching on
			// errors.Is(err, ErrInterrupted) must still recognize an
			// interrupted run whose final save failed.
			return fmt.Errorf("sched: checkpoint on interrupt: %w (%w)", err, ErrInterrupted)
		}
	}
	return ErrInterrupted
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
// without an entry restore as NullWorkload — but only when the checkpoint
// holds no rank states for them; dropping a real simulation's state on
// the floor is an error, not a default.
type WorkloadRegistry map[string]WorkloadFactory

// Checkpoint persists the whole farm into dir: every job's accounting
// and rank states, the queue order, the fair-share credit, the RNG state
// and a full cluster snapshot, versioned under ckpt.Version. Running
// jobs are checkpointed through Workload.Checkpoint — the suspend
// protocol followed by an immediate resume, so they keep their hosts and
// lose no placement — and their dump files are written one at a time
// with CheckpointGap pauses (the section-5.2 etiquette for the shared
// file server). Each save writes its states into a fresh generation
// directory and commits by renaming the manifest last, so a crash at any
// point leaves the previous complete checkpoint restorable; superseded
// generations are pruned after the commit.
//
// Checkpoint must run on the scheduling goroutine: the event loop calls
// it at CheckpointEvery ticks, and a Scenario callback may call it at an
// exact virtual time (the crash experiments do). It first retires every
// completion already due, so the checkpoint lands on a settled round
// boundary; beyond that the farm's virtual state is untouched, which is
// why a checkpointed run stays bit-identical to an undisturbed one.
func (s *Scheduler) Checkpoint(dir string) error {
	t := s.now()
	if err := s.complete(t); err != nil {
		return fmt.Errorf("sched: checkpoint: %w", err)
	}
	gen := ckpt.StatesDirName(s.ckptSeq + 1)
	m := &ckpt.Manifest{
		SavedAt:      t,
		Start:        s.start,
		Policy:       s.Policy.String(),
		Backfill:     s.Backfill.String(),
		RNG:          s.src.State(),
		Closed:       s.isClosed(),
		Reclaims:     s.reclaims,
		EASYDegraded: s.easyDegraded,
		ServedByUser: maps.Clone(s.servedByUser),
		StatesDir:    gen,
		Cluster:      s.Cluster.Snapshot(),
	}

	seq := dump.NewSequencer(s.CheckpointGap)
	add := func(js *jobState, phase string) error {
		if err := ckpt.CheckJobID(js.spec.ID); err != nil {
			return err
		}
		jr := recordJob(js, phase)
		if js.Started && (phase == ckpt.PhaseQueued || phase == ckpt.PhaseRunning) {
			states, err := js.work.Checkpoint()
			if err != nil {
				return fmt.Errorf("sched: checkpoint %s: %w", js.spec.ID, err)
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

	// A Phase's name is the manifest's (ckpt.PhasePending, ...).
	for p, jobs := range s.byPhase() {
		for _, js := range jobs {
			if err := add(js, Phase(p).String()); err != nil {
				return err
			}
		}
	}
	if err := ckpt.Save(dir, m); err != nil {
		return err
	}
	s.ckptSeq++
	// The manifest now points at the new generation; drop superseded and
	// never-committed ones so the directory holds exactly one save.
	if err := ckpt.Prune(dir, gen); err != nil {
		return err
	}
	s.emit(CheckpointSaved{T: t, Dir: dir, Gen: gen, Jobs: len(m.Jobs)})
	return nil
}

// Restore rebuilds a farm from a checkpoint directory: the cluster is
// overwritten from the manifest's snapshot (it must be an identically
// shaped pool, typically freshly built), every job is reconstructed in
// its checkpointed phase with its workload rebuilt through the registry
// and its rank states reloaded from disk, running jobs resume their
// workers on their recorded hosts, and the scheduler's clock, RNG and
// fair-share credit continue where the dead coordinator stopped — so the
// restored Run finishes bit-identically to one that never crashed.
//
// Timer, Events, Scenario/ScenarioEvery, Autoscale/AutoscaleEvery and
// the CheckpointEvery/Dir/Gap knobs are not persisted (function values
// and operator-local paths don't belong in a manifest); re-attach them
// before Run exactly as originally configured, or the restored run's
// prices and tick grid — and with them the bit-identity guarantee —
// change.
//
// Corrupt, partial or mismatched checkpoints fail with descriptive
// errors; on failure the cluster and any partially resumed workloads
// should be discarded.
func Restore(dir string, c *cluster.Cluster, reg WorkloadRegistry) (*Scheduler, error) {
	m, err := ckpt.Load(dir)
	if err != nil {
		return nil, err
	}
	pol, err := ParsePolicy(m.Policy)
	if err != nil {
		return nil, fmt.Errorf("sched: restore: %w", err)
	}
	bf, err := ParseBackfill(m.Backfill)
	if err != nil {
		return nil, fmt.Errorf("sched: restore: %w", err)
	}
	if got := m.Start + m.SavedAt; m.Cluster.Now != got {
		return nil, fmt.Errorf("sched: restore: manifest clock disagrees with cluster snapshot (%v + %v != %v)",
			m.Start, m.SavedAt, m.Cluster.Now)
	}
	if err := c.RestoreSnapshot(m.Cluster); err != nil {
		return nil, fmt.Errorf("sched: restore: %w", err)
	}

	s := New(c, pol, 0)
	s.Backfill = bf
	s.src.SetState(m.RNG)
	s.start = m.Start
	s.restored = true
	s.closed = m.Closed
	s.reclaims = m.Reclaims
	s.easyDegraded = m.EASYDegraded
	if m.StatesDir != "" {
		// Continue the save-generation numbering past the restored-from
		// checkpoint, so this farm's own saves never collide with it.
		seq, err := ckpt.ParseStatesDir(m.StatesDir)
		if err != nil {
			return nil, err
		}
		s.ckptSeq = seq
	}
	maps.Copy(s.servedByUser, m.ServedByUser)

	for _, jr := range m.Jobs {
		js, err := restoreJob(dir, m.StatesDir, jr, c, reg)
		if err != nil {
			return nil, err
		}
		s.ids[js.spec.ID] = true
		// Restore replays bookkeeping the original run already announced:
		// each job's queue/run/finish events live in the pre-checkpoint
		// stream, and re-emitting them here would double-count.
		switch jr.Phase {
		case ckpt.PhasePending:
			s.arrive(js)
		case ckpt.PhaseQueued:
			s.queue = append(s.queue, js)
		case ckpt.PhaseRunning:
			s.running = append(s.running, js)
		case ckpt.PhaseFinished:
			s.finished = append(s.finished, js)
		}
	}
	return s, nil
}

// restoreJob rebuilds one job from its manifest record: spec and
// accounting verbatim, workload from the registry, rank states from
// disk, and — for a running job — the reservation re-established on the
// snapshot-restored hosts, whose assignments must agree with the
// manifest.
func restoreJob(dir, statesDir string, jr ckpt.JobRecord, c *cluster.Cluster, reg WorkloadRegistry) (*jobState, error) {
	spec := JobSpec{
		ID: jr.ID, Method: jr.Method,
		JX: jr.JX, JY: jr.JY, JZ: jr.JZ, Side: jr.Side, Steps: jr.Steps,
		GX: jr.GridX, GY: jr.GridY, GZ: jr.GridZ,
		Priority: jr.Priority, User: jr.User, Weight: jr.Weight, Submit: jr.Submit,
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("sched: restore: %w", err)
	}
	js := &jobState{spec: spec, shape: jr.Shape(), Accounting: jr.Accounting}
	// The factory sees the job's effective geometry: the current lattice
	// with the original grid pinned, when resizes moved the job off its
	// spec.
	espec := js.espec()
	if err := espec.Validate(); err != nil {
		return nil, fmt.Errorf("sched: restore %s: resized lattice: %w", jr.ID, err)
	}
	var states []*dump.State
	if len(jr.StateSteps) > 0 {
		var err error
		states, err = ckpt.LoadStates(dir, statesDir, jr.ID, jr.StateSteps)
		if err != nil {
			return nil, err
		}
	}

	if f := reg[jr.ID]; f != nil {
		var err error
		if js.work, err = f(espec); err != nil {
			return nil, fmt.Errorf("sched: restore %s: workload factory: %w", jr.ID, err)
		}
	}
	if js.work == nil {
		if len(states) > 0 {
			return nil, fmt.Errorf(
				"sched: restore %s: checkpoint holds %d rank states but the registry has no workload factory for it",
				jr.ID, len(states))
		}
		js.work = NullWorkload{}
	}
	if len(states) > 0 {
		if err := js.work.Restore(states); err != nil {
			return nil, fmt.Errorf("sched: restore %s: %w", jr.ID, err)
		}
	}
	if jr.Phase != ckpt.PhaseRunning {
		return js, nil
	}

	hosts := make([]*cluster.Host, len(jr.Hosts))
	for rank, name := range jr.Hosts {
		h := c.ByName(name)
		if h == nil {
			return nil, fmt.Errorf("sched: restore %s: placement names unknown host %q", jr.ID, name)
		}
		if h.Assigned() != rank || h.Owner() != jr.ID {
			return nil, fmt.Errorf(
				"sched: restore %s: host %s assigned to rank %d of %q, manifest says rank %d of %q",
				jr.ID, name, h.Assigned(), h.Owner(), rank, jr.ID)
		}
		hosts[rank] = h
	}
	js.res = &cluster.Reservation{Owner: jr.ID, Hosts: hosts}
	if err := js.work.Resume(hosts); err != nil {
		return nil, fmt.Errorf("sched: restore %s: resuming workload: %w", jr.ID, err)
	}
	return js, nil
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
