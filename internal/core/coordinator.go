package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/syncfile"
)

// Job owns a distributed simulation: its workers, their communication
// epoch, the synchronization machinery and (optionally) the virtual
// cluster the workers are placed on. It implements the job-submit and
// monitoring programs of section 4.1 and the migration protocol of
// section 5.1:
//
//	the affected process receives a signal to migrate;
//	all the processes get synchronized;
//	process A saves its state into a dump file, and stops running;
//	process A is restarted on a free host, and the computation continues.
//
// Job methods must be called from a single goroutine (the designated
// workstation of section 4.1 that performs initialization, decomposition,
// submission and monitoring).
type Job struct {
	Factory TransportFactory
	Sync    *syncfile.Sync
	Until   int

	// Rebuild reconstructs a Program from a migration dump; wired by the
	// constructors to the config's RestoreProgram (geometry + RestoreState,
	// no initial condition).
	Rebuild func(st *dump.State) (Program, error)

	// WaitTimeout bounds every coordination wait (default 60s).
	WaitTimeout time.Duration

	events    chan Event
	workers   map[int]*Worker
	epoch     int
	round     int
	done      map[int]bool
	onRebuild func(rank int, prog Program)

	// resplit re-cuts a full set of same-step dumps onto a new decomposition
	// shape; wired by the constructors to resplit2D/resplit3D over the
	// config. See Job.Resize.
	resplit func(states []*dump.State, sh decomp.Shape) ([]*dump.State, error)

	// Optional virtual-cluster placement.
	Cluster *cluster.Cluster
	hostOf  map[int]*cluster.Host

	// Migrations counts completed migrations.
	Migrations int

	// workersOverride, when positive, replaces the config's intra-rank
	// worker budget on every live solver and on every solver rebuilt
	// after a migration (the scheduler threads farm.WithWorkers here).
	workersOverride int
}

// workerBudgeted is implemented by programs whose method accepts an
// intra-rank worker budget (both Program2D and Program3D).
type workerBudgeted interface{ SetWorkers(n int) }

// SetWorkers overrides the intra-rank worker budget of every rank's
// solver, now and across future migrations. Fields are bit-identical at
// every value. Call before Start (or while every worker is paused): the
// budget is plain solver state, not synchronized with running compute
// phases. n <= 0 clears the override (rebuilt solvers fall back to the
// config default).
func (j *Job) SetWorkers(n int) {
	j.workersOverride = n
	if n <= 0 {
		return
	}
	for _, rank := range j.ranks() {
		if p, ok := j.workers[rank].Prog.(workerBudgeted); ok {
			p.SetWorkers(n)
		}
	}
}

// ranks returns the job's worker ranks in ascending order, so every
// loop over the workers map visits them in a reproducible order.
func (j *Job) ranks() []int {
	return slices.Sorted(maps.Keys(j.workers))
}

// SetWorkers forwards the intra-rank worker budget to the method.
func (p *Program2D) SetWorkers(n int) { p.M.SetWorkers(n) }

// SetWorkers forwards the intra-rank worker budget to the method.
func (p *Program3D) SetWorkers(n int) { p.M.SetWorkers(n) }

// NewJob2D prepares a job for a 2D config. Workers are created immediately
// (channels open at epoch 0) but do not run until Start.
func NewJob2D(cfg *Config2D, factory TransportFactory, sync *syncfile.Sync, until int) (*Job, *JobPrograms2D, error) {
	jp := &JobPrograms2D{cfg: cfg}
	j, err := newJobOver(cfg, cfg.D, &jp.progs, factory, sync, until,
		func(states []*dump.State, sh decomp.Shape) ([]*dump.State, error) { return resplit2D(cfg, states, sh) })
	if err != nil {
		return nil, nil, err
	}
	return j, jp, nil
}

// jobConfig is what a job needs of its Config2D or Config3D.
type jobConfig[P Program] interface {
	Validate() error
	NewProgram(rank int) (P, error)
	RestoreProgram(st *dump.State) (P, error)
}

// newJobOver is the body of NewJob2D and NewJob3D: d is the config's
// decomposition (read only after Validate vouched for it), progs the
// rank -> live Program map the caller gathers from, and resplit the
// config's re-split program.
func newJobOver[P Program](cfg jobConfig[P], d interface{ P() int }, progs *map[int]P,
	factory TransportFactory, sync *syncfile.Sync, until int,
	resplit func([]*dump.State, decomp.Shape) ([]*dump.State, error)) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	j := newJob(factory, sync, until, d.P())
	j.Rebuild = func(st *dump.State) (Program, error) {
		p, err := cfg.RestoreProgram(st)
		if err != nil {
			return nil, err // a bare nil, not a typed-nil Program
		}
		return p, nil
	}
	*progs = make(map[int]P)
	for rank := 0; rank < d.P(); rank++ {
		p, err := cfg.NewProgram(rank)
		if err != nil {
			return nil, err
		}
		(*progs)[rank] = p
		w, err := NewWorker(p, factory, 0, j.events)
		if err != nil {
			return nil, err
		}
		j.wireSync(w)
		j.workers[rank] = w
	}
	j.onRebuild = func(rank int, prog Program) {
		(*progs)[rank] = prog.(P)
	}
	j.resplit = func(states []*dump.State, sh decomp.Shape) ([]*dump.State, error) {
		out, err := resplit(states, sh)
		if err != nil {
			return nil, err
		}
		// The old rank set is gone; onRebuild refills the map as Resize
		// rebuilds each new rank.
		*progs = make(map[int]P)
		return out, nil
	}
	return j, nil
}

// JobPrograms2D tracks the live Program of every rank across migrations,
// so the final solution can be gathered.
type JobPrograms2D struct {
	cfg   *Config2D
	progs map[int]*Program2D
}

// Gather assembles the global solution from the current programs.
func (jp *JobPrograms2D) Gather(steps int) *Result2D {
	ordered := make([]*Program2D, 0, len(jp.progs))
	for _, rank := range slices.Sorted(maps.Keys(jp.progs)) {
		ordered = append(ordered, jp.progs[rank])
	}
	return Gather2D(jp.cfg, ordered, steps)
}

func newJob(factory TransportFactory, sync *syncfile.Sync, until, p int) *Job {
	return &Job{
		Factory:     factory,
		Sync:        sync,
		Until:       until,
		WaitTimeout: 60 * time.Second,
		events:      make(chan Event, 32*p),
		workers:     make(map[int]*Worker),
		done:        make(map[int]bool),
		hostOf:      make(map[int]*cluster.Host),
	}
}

func (j *Job) wireSync(w *Worker) {
	p := j.P()
	w.Sync = func(round, rank, step int) (int, error) {
		return j.Sync.SyncStep(round, rank, step, p, j.waitTimeout())
	}
}

func (j *Job) waitTimeout() time.Duration {
	if j.WaitTimeout > 0 {
		return j.WaitTimeout
	}
	return 60 * time.Second
}

// P returns the number of parallel subprocesses. It counts created
// workers, which is fixed for the life of the job.
func (j *Job) P() int {
	if n := len(j.workers); n > 0 {
		return n
	}
	return 1
}

// Worker returns the current worker of a rank (it changes on migration).
func (j *Job) Worker(rank int) *Worker { return j.workers[rank] }

// Epoch returns the current communication epoch.
func (j *Job) Epoch() int { return j.epoch }

// Start launches every worker on its own goroutine.
func (j *Job) Start() {
	// The sync funcs capture P; re-wire now that all workers exist.
	for _, rank := range j.ranks() {
		j.wireSync(j.workers[rank])
	}
	for _, rank := range j.ranks() {
		go j.workers[rank].Start(j.Until)
	}
}

// PlaceOnCluster assigns each rank to a free host of the virtual cluster
// using the section-4.1 selection policy.
func (j *Job) PlaceOnCluster(c *cluster.Cluster) error {
	hosts := c.SelectFree(j.P(), cluster.DefaultPolicy())
	if len(hosts) < j.P() {
		return fmt.Errorf("core: cluster has %d free hosts, need %d", len(hosts), j.P())
	}
	j.Cluster = c
	for rank := 0; rank < j.P(); rank++ {
		hosts[rank].Assign(rank)
		j.hostOf[rank] = hosts[rank]
	}
	return nil
}

// HostOf returns the host a rank runs on, or nil without a cluster.
func (j *Job) HostOf(rank int) *cluster.Host { return j.hostOf[rank] }

// ErrWorkerSilent is returned (wrapped) by every coordination wait when no
// rank reports within the job's WaitTimeout: a hung or dead rank fails
// its job instead of hanging it. Callers branch with errors.Is.
var ErrWorkerSilent = errors.New("core: no worker event within the wait timeout")

// nextEvent reads one worker event with a deadline.
func (j *Job) nextEvent() (Event, error) {
	select {
	case e := <-j.events:
		if e.Kind == EventError {
			return e, fmt.Errorf("core: rank %d failed at step %d: %w", e.Rank, e.Step, e.Err)
		}
		return e, nil
	//detlint:allow nodeterm -- liveness timeout: it only bounds how long we wait for a worker event, and a firing aborts the run; it never reorders or changes delivered events
	case <-time.After(j.waitTimeout()):
		return Event{}, fmt.Errorf("%w (%v)", ErrWorkerSilent, j.waitTimeout())
	}
}

// WaitDone blocks until every rank reports completion, servicing nothing
// else. Call MonitorLoop instead to interleave migration checks.
func (j *Job) WaitDone() error {
	for len(j.done) < j.P() {
		e, err := j.nextEvent()
		if err != nil {
			return err
		}
		if e.Kind == EventDone {
			j.done[e.Rank] = true
		}
	}
	return nil
}

// Shutdown stops all workers' control planes after completion.
func (j *Job) Shutdown() {
	for _, rank := range j.ranks() {
		j.workers[rank].Shutdown()
	}
}

// MigrateRanks executes the full migration protocol for the given ranks:
// global synchronization, dump, restart at the next epoch, resume. The
// onNewHost callback (optional) reports each migrated rank's dump so the
// caller can reassign cluster hosts or persist the dump file.
func (j *Job) MigrateRanks(ranks []int, onDump func(rank int, st *dump.State)) error {
	if len(ranks) == 0 {
		return nil
	}
	migrating := map[int]bool{}
	for _, r := range ranks {
		if _, ok := j.workers[r]; !ok {
			return fmt.Errorf("core: no worker with rank %d", r)
		}
		migrating[r] = true
	}

	// 1. Signal every process to synchronize (kill -USR2 to all).
	j.round++
	for _, rank := range j.ranks() {
		j.workers[rank].RequestPause(j.round)
	}
	// 2. Wait until all processes reach the synchronization step. Done
	// events from finishing workers may interleave.
	paused := map[int]bool{}
	for len(paused) < j.P() {
		e, err := j.nextEvent()
		if err != nil {
			return fmt.Errorf("core: waiting for pause: %w", err)
		}
		switch e.Kind {
		case EventPaused:
			paused[e.Rank] = true
		case EventDone:
			j.done[e.Rank] = true
		}
	}

	// 3. Migrating processes save their state and exit.
	j.epoch++
	states := map[int]*dump.State{}
	for _, r := range ranks {
		j.workers[r].RequestMigrate()
	}
	for len(states) < len(ranks) {
		e, err := j.nextEvent()
		if err != nil {
			return fmt.Errorf("core: waiting for dumps: %w", err)
		}
		if e.Kind == EventMigrated {
			st := e.State.(*dump.State)
			states[e.Rank] = st
			if onDump != nil {
				onDump(e.Rank, st)
			}
		}
	}

	// 4. Restart each migrated process on its new host from the dump,
	// with channels at the new epoch.
	for _, r := range ranks {
		st := states[r]
		st.Epoch = j.epoch
		prog, err := j.Rebuild(st)
		if err != nil {
			return fmt.Errorf("core: rebuilding rank %d: %w", r, err)
		}
		// Rebuild restores the config's worker budget; keep any
		// scheduler-level override across the migration.
		if j.workersOverride > 0 {
			if p, ok := prog.(workerBudgeted); ok {
				p.SetWorkers(j.workersOverride)
			}
		}
		w, err := NewWorkerAt(prog, j.Factory, j.epoch, j.events, st.Step)
		if err != nil {
			return fmt.Errorf("core: restarting rank %d: %w", r, err)
		}
		j.wireSync(w)
		j.workers[r] = w
		if j.onRebuild != nil {
			j.onRebuild(r, prog)
		}
		delete(j.done, r)
		go w.Start(j.Until)
	}

	// 5. CONT: the waiting processes re-open their channels and the
	// distributed computation continues.
	for _, rank := range j.ranks() {
		if migrating[rank] {
			continue
		}
		if err := <-j.workers[rank].RequestResume(j.epoch); err != nil {
			return fmt.Errorf("core: resuming rank %d: %w", rank, err)
		}
		delete(j.done, rank) // resumed workers re-announce completion
	}
	j.Migrations += len(ranks)
	return nil
}

// MonitorOnce performs one monitoring-program check (section 4.1: "checks
// every few minutes whether the parallel processes are progressing
// correctly"; section 5.1: migrate when the five-minute load exceeds the
// threshold). It returns the ranks migrated.
func (j *Job) MonitorOnce(pol cluster.MigrationPolicy, onDump func(int, *dump.State)) ([]int, error) {
	if j.Cluster == nil {
		return nil, nil
	}
	busy := j.Cluster.NeedsMigration(pol)
	if len(busy) == 0 {
		return nil, nil
	}
	var ranks []int
	var freed []*cluster.Host
	for _, h := range busy {
		ranks = append(ranks, h.Assigned())
		freed = append(freed, h)
	}
	// Select replacement hosts before unassigning, so the busy hosts
	// cannot be re-picked.
	repl := j.Cluster.SelectFree(len(ranks), cluster.DefaultPolicy())
	if len(repl) < len(ranks) {
		return nil, fmt.Errorf("core: need %d free hosts for migration, found %d", len(ranks), len(repl))
	}
	if err := j.MigrateRanks(ranks, onDump); err != nil {
		return nil, err
	}
	for i, h := range freed {
		h.Unassign()
		repl[i].Assign(ranks[i])
		j.hostOf[ranks[i]] = repl[i]
	}
	return ranks, nil
}

// MonitorLoop runs the monitoring program until every rank completes: it
// waits for worker events, and every checkEvery simulated minutes advances
// the virtual cluster and performs a MonitorOnce check (section 4.1: "the
// monitoring program checks every few minutes whether the parallel
// processes are progressing correctly"). The loop drives simulated time,
// so tests and examples control load scenarios through the scenario
// callback, which is invoked before each check and may start or stop jobs
// on hosts. It returns the total number of migrations performed.
func (j *Job) MonitorLoop(checkEvery time.Duration, pol cluster.MigrationPolicy,
	scenario func(tick int, c *cluster.Cluster)) (int, error) {
	if j.Cluster == nil {
		return 0, fmt.Errorf("core: MonitorLoop requires PlaceOnCluster")
	}
	migrations := 0
	for tick := 0; len(j.done) < j.P(); tick++ {
		// Drain any pending events without blocking for long.
		select {
		case e := <-j.events:
			if e.Kind == EventError {
				return migrations, fmt.Errorf("core: rank %d failed at step %d: %w", e.Rank, e.Step, e.Err)
			}
			if e.Kind == EventDone {
				j.done[e.Rank] = true
			}
			continue
		//detlint:allow nodeterm -- poll pacing only: the tick bounds how fast the monitor spins between drains; decisions are driven by tick count and virtual cluster time, not by this wall-clock delay
		case <-time.After(time.Millisecond):
		}
		if scenario != nil {
			scenario(tick, j.Cluster)
		}
		j.Cluster.Advance(checkEvery)
		ranks, err := j.MonitorOnce(pol, nil)
		if err != nil {
			return migrations, err
		}
		migrations += len(ranks)
	}
	return migrations, nil
}

// NewJob3D prepares a job for a 3D config, the analogue of NewJob2D.
func NewJob3D(cfg *Config3D, factory TransportFactory, sync *syncfile.Sync, until int) (*Job, *JobPrograms3D, error) {
	jp := &JobPrograms3D{cfg: cfg}
	j, err := newJobOver(cfg, cfg.D, &jp.progs, factory, sync, until,
		func(states []*dump.State, sh decomp.Shape) ([]*dump.State, error) { return resplit3D(cfg, states, sh) })
	if err != nil {
		return nil, nil, err
	}
	return j, jp, nil
}

// JobPrograms3D tracks the live Program of every rank across migrations.
type JobPrograms3D struct {
	cfg   *Config3D
	progs map[int]*Program3D
}

// Gather assembles the global 3D solution from the current programs.
func (jp *JobPrograms3D) Gather(steps int) *Result3D {
	ordered := make([]*Program3D, 0, len(jp.progs))
	for _, rank := range slices.Sorted(maps.Keys(jp.progs)) {
		ordered = append(ordered, jp.progs[rank])
	}
	return Gather3D(jp.cfg, ordered, steps)
}
