package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/syncfile"
)

// Job owns a distributed simulation: its workers, their communication
// epoch and the synchronization machinery. It implements the job-submit
// program of section 4.1 and the migration protocol of section 5.1, which
// the monitoring program (farm) drives:
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
	factory TransportFactory
	sf      *syncfile.Sync
	until   int // the step every worker runs to; newJob refuses one below 0

	waitTimeout time.Duration // bounds every coordination wait (60s)
	events      chan Event
	workers     map[int]*Worker
	p           int // rank count; changes only in Resize
	epoch       int
	round       int
	state       jobState
	ndone       int // ranks done since the state last entered running

	// rebuild restores a set of dumps into their ranks' live Programs, the
	// ones JobPrograms has.
	rebuild func(states []*dump.State) ([]Program, error)

	// resplit re-cuts a full set of same-step dumps into the live Programs
	// of a new decomposition shape (resplit over the config) and returns
	// their dumps, views that launch restores in place. See Job.Resize.
	resplit func(states []*dump.State, sh decomp.Shape) ([]*dump.State, error)

	// retired holds the Programs (a []P) the last resize replaced, by
	// rank, for a resize back onto their boxes; kept the last Snapshot's
	// dumps, for the next to copy into. Both go when the job finishes.
	retired any
	kept    []*dump.State
}

// jobState is where a job stands in section 5.1's protocol.
type jobState string

const (
	ready     jobState = "ready"     // built, no worker started
	running   jobState = "running"   // some rank has steps to go
	finished  jobState = "finished"  // every rank reported done
	suspended jobState = "suspended" // every rank dumped and exited
	failed    jobState = "failed"    // an op failed part-way: only Shutdown is valid
	closed    jobState = "closed"    // shut down
)

// ErrJobState, wrapped with the op and the state, is returned by an op the
// job's state does not accept, which leaves the job as it was.
var ErrJobState = errors.New("core: op not valid in the job's state")

// check returns ErrJobState unless the job is in one of the states ok.
func (j *Job) check(op string, ok ...jobState) error {
	if slices.Contains(ok, j.state) {
		return nil
	}
	return fmt.Errorf("%w: cannot %s a %s job", ErrJobState, op, j.state)
}

// ranks returns the job's worker ranks in ascending order, so every
// loop over the workers map visits them in a reproducible order.
func (j *Job) ranks() []int {
	return slices.Sorted(maps.Keys(j.workers))
}

// jobPrograms tracks the live Program of every rank, by rank, across
// migrations and resizes, so the final solution can be gathered.
type jobPrograms[C any, P Program, R any] struct {
	cfg    C
	progs  []P
	gather func(C, []P, int) R
}

// JobPrograms2D is the live Program2D of each rank of a 2D job.
type JobPrograms2D = jobPrograms[*Config2D, *Program2D, *Result2D]

// JobPrograms3D is the live Program3D of each rank of a 3D job.
type JobPrograms3D = jobPrograms[*Config3D, *Program3D, *Result3D]

// Gather assembles the global solution from the current programs.
func (jp *jobPrograms[C, P, R]) Gather(steps int) R { return jp.gather(jp.cfg, jp.progs, steps) }

// NewJob2D prepares a job for a 2D config. Workers are created immediately
// (channels open at epoch 0) but do not run until Start. A job runs to
// step until, which must not be negative.
func NewJob2D(cfg *Config2D, factory TransportFactory, sync *syncfile.Sync, until int) (*Job, *JobPrograms2D, error) {
	return newJob(cfg, Gather2D, factory, sync, until)
}

// NewJob3D prepares a job for a 3D config, the analogue of NewJob2D.
func NewJob3D(cfg *Config3D, factory TransportFactory, sync *syncfile.Sync, until int) (*Job, *JobPrograms3D, error) {
	return newJob(cfg, Gather3D, factory, sync, until)
}

// newJob is the body of NewJob2D and NewJob3D over the config's gather
// program.
func newJob[C setup[P], P built, R any](cfg C, gather func(C, []P, int) R,
	factory TransportFactory, sf *syncfile.Sync, until int) (*Job, *jobPrograms[C, P, R], error) {
	// A worker's pause step is clamped to until, and the negative pause
	// steps are its sentinels: a job below step 0 would never pause.
	if until < 0 {
		return nil, nil, fmt.Errorf("core: a job cannot run until step %d", until)
	}
	progs, err := buildAll[P](cfg)
	if err != nil {
		return nil, nil, err
	}
	jp := &jobPrograms[C, P, R]{cfg: cfg, progs: progs, gather: gather}
	j := &Job{
		factory:     factory,
		sf:          sf,
		until:       until,
		waitTimeout: 60 * time.Second,
		events:      make(chan Event, 32*len(progs)),
		workers:     make(map[int]*Worker),
		p:           len(progs),
		state:       ready,
	}
	j.rebuild = func(states []*dump.State) ([]Program, error) {
		// Every rank a set names has a live Program: newJob built one for
		// each, resplit replaces them all, and restart refuses a set that
		// is not one dump per rank. Each restores its dump in place, once
		// every dump of the set is known to fit: the caller's suspended
		// states are views of these arrays, so a set refused half-way
		// would have overwritten them.
		progs := make([]Program, len(states))
		for i, st := range states {
			p := jp.progs[st.Rank]
			if err := p.fits(st); err != nil {
				return nil, fmt.Errorf("rebuilding rank %d: %w", st.Rank, err)
			}
			progs[i] = p
		}
		if err := eachRank(len(states), func(i int) error {
			if err := progs[i].RestoreState(states[i]); err != nil {
				return fmt.Errorf("rebuilding rank %d: %w", states[i].Rank, err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		return progs, nil
	}
	j.resplit = func(states []*dump.State, sh decomp.Shape) ([]*dump.State, error) {
		retired, _ := j.retired.([]P)
		progs, out, err := resplit(cfg, states, sh, retired)
		if err != nil {
			return nil, err
		}
		// The old rank set retires. The new ranks' Programs hold the
		// re-cut state, and launch restores each one's dump in place.
		j.retired, jp.progs = jp.progs, progs
		return out, nil
	}
	ts, err := j.open(len(progs))
	if err != nil {
		return nil, nil, err
	}
	for rank, p := range progs {
		j.workers[rank] = newWorker(p, ts[rank], 0, j.events, 0)
	}
	return j, jp, nil
}

// eachRank runs f(0) .. f(n-1), one goroutine each, joins them all and
// returns the error of the lowest index that failed.
func eachRank(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		//detlint:allow entropy -- each call writes only its own index's results, and all are joined before any is read
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// P returns the number of parallel subprocesses; only Resize changes it.
func (j *Job) P() int { return j.p }

// Epoch returns the current communication epoch.
func (j *Job) Epoch() int { return j.epoch }

// Start launches every worker of a ready job on its own goroutine.
func (j *Job) Start() error {
	if err := j.check("start", ready); err != nil {
		return err
	}
	j.start(j.ranks())
	j.state = running
	return nil
}

// start launches the given ranks' workers, each on its own goroutine.
func (j *Job) start(ranks []int) {
	for _, rank := range ranks {
		//detlint:allow entropy -- rank goroutine, one per workstation process: every exchange is rank-addressed and the coordinator acts on events by rank, and a relaunched rank resumes from its dump at the agreed sync step, so the interleaving never reaches the bits
		go j.workers[rank].Start(j.until)
	}
}

// ErrWorkerSilent is returned (wrapped) by every coordination wait when no
// rank reports within the job's wait timeout: a hung or dead rank fails
// its job instead of hanging it. Callers branch with errors.Is.
var ErrWorkerSilent = errors.New("core: no worker event within the wait timeout")

// nextEvent reads one worker event with a deadline.
func (j *Job) nextEvent() (Event, error) {
	select {
	case e := <-j.events:
		if e.Kind == EventError {
			j.state = failed
			return e, fmt.Errorf("core: rank %d failed at step %d: %w", e.Rank, e.Step, e.Err)
		}
		return e, nil
	//detlint:allow entropy -- liveness timeout: it only bounds how long we wait for a worker event, and a firing aborts the run; it never reorders or changes delivered events
	case <-time.After(j.waitTimeout):
		return Event{}, fmt.Errorf("%w (%v)", ErrWorkerSilent, j.waitTimeout)
	}
}

// WaitDone blocks until every rank reports completion, servicing nothing
// else. A wait that ends in ErrWorkerSilent leaves the job running.
func (j *Job) WaitDone() error {
	if err := j.check("wait on", running, finished); err != nil {
		return err
	}
	for j.ndone < j.P() {
		e, err := j.nextEvent()
		if err != nil {
			return err
		}
		if e.Kind == EventDone {
			j.ndone++
		}
	}
	j.state, j.retired, j.kept = finished, nil, nil
	return nil
}

// Shutdown closes the job in any state, once: running workers finish their
// steps, done, holding or paused ones exit, and a ready job's workers,
// never started, close their channels.
func (j *Job) Shutdown() {
	for _, rank := range j.ranks() {
		if j.state == ready {
			j.workers[rank].Close()
		}
		j.workers[rank].Shutdown()
	}
	j.state = closed
}

// pauseAll is steps 1-2 of the protocol: signal every process to
// synchronize (kill -USR2 to all) and wait until all of them have reached
// the synchronization step. The coordinator is every process's signal
// handler (appendix B): it holds each rank at its next step boundary,
// appends the rank's step to the round's shared file, reads back T_max and
// holds every rank at T_max + 1, clamped to the run's end (a rank that
// already finished cannot advance further). A rank's announced step may
// lag its true one by the step in flight, never more, so no rank is past
// the sync step. Done events from finishing workers may interleave, each
// before its rank's pause; the op restarts the count. A round that fails
// releases every hold, takes its file away and returns the cause. It
// accepts a running or a finished job; from its holds on, the job is
// failed until the op completes.
func (j *Job) pauseAll(op string) error {
	if err := j.check(op, running, finished); err != nil {
		return err
	}
	j.round++
	ranks := j.ranks()
	for _, rank := range ranks {
		j.workers[rank].pauseAt.Store(pausePending)
	}
	s, err := j.syncStep(ranks)
	if err != nil {
		for _, rank := range ranks {
			j.workers[rank].hold(pauseNone)
		}
		return errors.Join(err, j.sf.Clear(j.round))
	}
	j.state = failed
	for _, rank := range ranks {
		j.workers[rank].hold(int64(min(s, j.until)))
	}
	paused := map[int]bool{}
	for len(paused) < j.P() {
		e, err := j.nextEvent()
		if err != nil {
			return fmt.Errorf("waiting for pause: %w", err)
		}
		if e.Kind == EventPaused {
			paused[e.Rank] = true
		}
	}
	// Every rank has read the round to pause, so its file goes: the next
	// job over the same directory numbers its rounds from 1 again.
	return j.sf.Clear(j.round)
}

// syncStep announces every rank's step in this round's file and returns
// the sync step all of them read back.
func (j *Job) syncStep(ranks []int) (int, error) {
	for _, rank := range ranks {
		if err := j.sf.Announce(j.round, rank, int(j.workers[rank].step.Load())); err != nil {
			return 0, err
		}
	}
	return j.sf.WaitAll(j.round, j.P(), j.waitTimeout)
}

// collect is step 3: the given (paused) ranks save their state, then exit
// (a migration) or keep holding (a snapshot, copied into the arrays of the
// last one where they fit). The dumps come back in the order the ranks were
// given.
func (j *Job) collect(ranks []int, exit bool) ([]*dump.State, error) {
	for _, r := range ranks {
		var into *dump.State
		if !exit {
			into = new(dump.State)
			if r < len(j.kept) {
				into = j.kept[r]
			}
		}
		j.workers[r].requestDump(into)
	}
	byRank := map[int]*dump.State{}
	for len(byRank) < len(ranks) {
		e, err := j.nextEvent()
		if err != nil {
			return nil, fmt.Errorf("waiting for dumps: %w", err)
		}
		if e.Kind == EventDumped {
			byRank[e.Rank] = e.State
		}
	}
	states := make([]*dump.State, len(ranks))
	for i, r := range ranks {
		states[i] = byRank[r]
	}
	return states, nil
}

// cycle is the section-5.1 protocol around a set of dumps, the body of
// MigrateRanks and Snapshot: every rank synchronizes and holds (steps 1-2),
// the epoch advances, and the given ranks save their state (step 3). With
// move they exit and are relaunched from their dumps (step 4), onDump
// seeing each first; every rank that held continues as it was (step 5).
// Every rank's channels open before any rank computes on, so a cycle whose
// channels fail leaves the job failed with every rank held, none waiting.
func (j *Job) cycle(op string, ranks []int, move bool, onDump func(rank int, st *dump.State)) ([]*dump.State, error) {
	if err := j.pauseAll(op); err != nil {
		return nil, err
	}
	j.epoch++
	states, err := j.collect(ranks, move)
	if err != nil {
		return nil, err
	}
	var progs []Program
	if move {
		for _, st := range states {
			if onDump != nil {
				onDump(st.Rank, st)
			}
		}
		if progs, err = j.rebuild(states); err != nil {
			return nil, err
		}
	}
	ts, err := j.open(j.P())
	if err != nil {
		return nil, err
	}
	if move {
		j.launch(states, progs, ts)
		j.start(ranks)
	}
	// 5. CONT: the waiting processes, their holds cleared, take their
	// channels at the new epoch and the distributed computation continues.
	for _, rank := range j.ranks() {
		if w := j.workers[rank]; !move || !slices.Contains(ranks, rank) {
			w.pauseAt.Store(pauseNone)
			w.ctrl <- ctrlMsg{kind: ctrlResume, epoch: j.epoch, t: ts[rank]}
		}
	}
	j.state, j.ndone = running, 0 // every rank is to report done anew
	return states, nil
}

// MigrateRanks executes the full migration protocol for the given ranks:
// global synchronization, dump, restart at the next epoch, resume. The
// onDump callback (optional) reports each migrated rank's dump so the
// caller can persist the dump file. The dump's fields are views of the
// rank's live arrays, valid only during the callback: the rank is
// restored into the same Program and computes on.
func (j *Job) MigrateRanks(ranks []int, onDump func(rank int, st *dump.State)) error {
	if len(ranks) == 0 {
		return nil
	}
	for _, r := range ranks {
		if _, ok := j.workers[r]; !ok {
			return fmt.Errorf("core: no worker with rank %d", r)
		}
	}
	if _, err := j.cycle("migrate", ranks, true, onDump); err != nil {
		return fmt.Errorf("core: migrate: %w", err)
	}
	return nil
}
