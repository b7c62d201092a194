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

	// WaitTimeout bounds every coordination wait (default 60s).
	WaitTimeout time.Duration

	events  chan Event
	workers map[int]*Worker
	p       int // rank count; changes only in Resize
	epoch   int
	round   int
	done    map[int]bool

	// rebuild restores a set of dumps into their ranks' live Programs, the
	// ones JobPrograms has.
	rebuild func(states []*dump.State) ([]Program, error)

	// resplit re-cuts a full set of same-step dumps into the live Programs
	// of a new decomposition shape (resplit over the config) and returns
	// their dumps, views that launch restores in place. See Job.Resize.
	resplit func(states []*dump.State, sh decomp.Shape) ([]*dump.State, error)

	// retired holds the Programs (a []P) the last resize replaced, by
	// rank, for a resize back onto their boxes; kept the last Snapshot's
	// dumps, for the next to copy into. Both go when every rank is done.
	retired any
	kept    []*dump.State

	// Migrations counts completed migrations.
	Migrations int
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
		WaitTimeout: 60 * time.Second,
		events:      make(chan Event, 32*len(progs)),
		workers:     make(map[int]*Worker),
		p:           len(progs),
		done:        make(map[int]bool),
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
	for rank, p := range progs {
		w, err := NewWorker(p, factory, 0, j.events)
		if err != nil {
			for _, rank := range j.ranks() {
				j.workers[rank].retire()
			}
			return nil, nil, err
		}
		j.workers[rank] = w
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

// Start launches every worker on its own goroutine.
func (j *Job) Start() { j.start(j.ranks()) }

// start launches the given ranks' workers, each on its own goroutine.
func (j *Job) start(ranks []int) {
	for _, rank := range ranks {
		//detlint:allow entropy -- rank goroutine, one per workstation process: every exchange is rank-addressed and the coordinator acts on events by rank, and a relaunched rank resumes from its dump at the agreed sync step, so the interleaving never reaches the bits
		go j.workers[rank].Start(j.until)
	}
}

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
	//detlint:allow entropy -- liveness timeout: it only bounds how long we wait for a worker event, and a firing aborts the run; it never reorders or changes delivered events
	case <-time.After(j.WaitTimeout):
		return Event{}, fmt.Errorf("%w (%v)", ErrWorkerSilent, j.WaitTimeout)
	}
}

// WaitDone blocks until every rank reports completion, servicing nothing
// else.
func (j *Job) WaitDone() error {
	for len(j.done) < j.P() {
		e, err := j.nextEvent()
		if err != nil {
			return err
		}
		if e.Kind == EventDone {
			j.finished(e.Rank)
		}
	}
	return nil
}

// finished records a rank's completion; the last drops what the job keeps.
func (j *Job) finished(rank int) {
	j.done[rank] = true
	if len(j.done) == j.P() {
		j.retired, j.kept = nil, nil
	}
}

// Shutdown stops all workers' control planes after completion.
func (j *Job) Shutdown() {
	for _, rank := range j.ranks() {
		j.workers[rank].Shutdown()
	}
}

// pauseAll is steps 1-2 of the protocol: signal every process to
// synchronize (kill -USR2 to all) and wait until all of them have reached
// the synchronization step. The coordinator is every process's signal
// handler (appendix B): it holds each rank at its next step boundary,
// appends the rank's step to the round's shared file, reads back T_max and
// holds every rank at T_max + 1, clamped to the run's end (a rank that
// already finished cannot advance further). A rank's announced step may
// lag its true one by the step in flight, never more, so no rank is past
// the sync step. Done events from finishing workers may interleave. A round
// that fails releases every hold, takes its file away and returns the
// cause.
func (j *Job) pauseAll() error {
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
	for _, rank := range ranks {
		j.workers[rank].hold(int64(min(s, j.until)))
	}
	paused := map[int]bool{}
	for len(paused) < j.P() {
		e, err := j.nextEvent()
		if err != nil {
			return fmt.Errorf("waiting for pause: %w", err)
		}
		switch e.Kind {
		case EventPaused:
			paused[e.Rank] = true
		case EventDone:
			j.finished(e.Rank)
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
	return j.sf.WaitAll(j.round, j.P(), j.WaitTimeout)
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

// launch is step 4: the ranks of a set of dumps are restored from them and
// get fresh workers with channels at the current epoch, ready to start.
// The workers they replace, whose compute loops have exited, retire, and
// so do the fresh ones if a later rank cannot open its channels.
func (j *Job) launch(states []*dump.State) error {
	for _, st := range states {
		if w := j.workers[st.Rank]; w != nil {
			w.retire()
		}
	}
	progs, err := j.rebuild(states)
	if err != nil {
		return err
	}
	for i, st := range states {
		st.Epoch = j.epoch
		w, err := newWorkerAt(progs[i], j.factory, j.epoch, j.events, st.Step)
		if err != nil {
			for _, made := range states[:i] {
				j.workers[made.Rank].retire()
			}
			return fmt.Errorf("restarting rank %d: %w", st.Rank, err)
		}
		j.workers[st.Rank] = w
		delete(j.done, st.Rank)
	}
	return nil
}

// cycle is the section-5.1 protocol around a set of dumps, the body of
// MigrateRanks and Snapshot: every rank synchronizes and holds (steps 1-2),
// the epoch advances, and the given ranks save their state (step 3). With
// move they exit and are relaunched from their dumps (step 4), onDump
// seeing each first; every rank that held continues as it was (step 5).
func (j *Job) cycle(ranks []int, move bool, onDump func(rank int, st *dump.State)) ([]*dump.State, error) {
	if err := j.pauseAll(); err != nil {
		return nil, err
	}
	j.epoch++
	states, err := j.collect(ranks, move)
	if err != nil {
		return nil, err
	}
	if move {
		for _, st := range states {
			if onDump != nil {
				onDump(st.Rank, st)
			}
		}
		if err := j.launch(states); err != nil {
			return nil, err
		}
		j.start(ranks)
	}
	// 5. CONT: the waiting processes re-open their channels and the
	// distributed computation continues.
	for _, rank := range j.ranks() {
		if move && slices.Contains(ranks, rank) {
			continue
		}
		if err := <-j.workers[rank].requestResume(j.epoch); err != nil {
			return nil, fmt.Errorf("resuming rank %d: %w", rank, err)
		}
		delete(j.done, rank) // resumed workers re-announce completion
	}
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
	if _, err := j.cycle(ranks, true, onDump); err != nil {
		return fmt.Errorf("core: migrate: %w", err)
	}
	j.Migrations += len(ranks)
	return nil
}
