package core

import (
	"fmt"

	"repro/internal/dump"
	"repro/internal/msg"
)

// Suspend halts a running or finished job through the section-5.1 protocol
// applied to every rank at once: all processes synchronize, each saves its
// state into a dump and exits. The returned states (ordered by rank) are
// the complete checkpoint; Resume restarts the job from them, and the
// continued computation is bitwise identical to an uninterrupted run —
// the same guarantee migration gives, reused as a scheduling primitive so
// a farm can preempt a low-priority job and give its hosts to another.
//
// The states' fields are views of the ranks' live arrays, valid until the
// next Resume or Resize; Resume restores them in place, copying nothing.
// The suspended job accepts only Resume and Shutdown.
func (j *Job) Suspend() ([]*dump.State, error) {
	if err := j.pauseAll("suspend"); err != nil {
		return nil, fmt.Errorf("core: suspend: %w", err)
	}
	states, err := j.collect(j.ranks(), true)
	if err != nil {
		return nil, fmt.Errorf("core: suspend: %w", err)
	}
	// The compute goroutines have exited; close their control channels.
	for _, rank := range j.ranks() {
		j.workers[rank].Shutdown()
	}
	j.state = suspended
	return states, nil
}

// Snapshot checkpoints a running job in place: every rank synchronizes,
// dumps its state and keeps holding, and the whole job continues at the
// next epoch — section 5.1's protocol with no process moving, so every
// rank keeps its Program and its host, and nothing is rebuilt. The dumps
// are copies frozen at the save point, so a farm coordinator can persist
// them while the computation continues, valid until the job's next
// Snapshot, which copies into the same arrays where they fit; taking a
// snapshot never changes the results.
func (j *Job) Snapshot() ([]*dump.State, error) {
	states, err := j.cycle("snapshot", j.ranks(), false, nil)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	j.kept = states
	return states, nil
}

// Resume restarts a suspended job from the states Suspend returned, or a
// ready one from a saved set (a restore): every rank's Program is restored
// from its dump and a fresh worker starts at the next communication epoch,
// exactly as step 4 of the migration protocol restarts a single migrated
// process. A set that is not one dump per rank, all at one step, or does
// not fit is refused, as is a running or finished job (no caller rewinds
// one), and the job stays as it was.
func (j *Job) Resume(states []*dump.State) error {
	err := j.check("resume", ready, suspended)
	if err == nil && len(states) != j.P() {
		err = fmt.Errorf("%d states for %d ranks", len(states), j.P())
	}
	if err == nil {
		err = j.restart(states)
	}
	if err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	return nil
}

// restart retires the whole worker set, started or not, replaces it with
// one fresh worker per state, at the next communication epoch, and starts
// them. Resume calls it with the suspended rank set, Resize with the re-cut
// one. A set that is not one dump per rank, all at one step, or does not
// fit is refused before anything changes: started, the ranks behind, or
// whose neighbour has no dump, would wait for messages that never come.
func (j *Job) restart(states []*dump.State) error {
	if _, err := checkSet(states); err != nil {
		return err
	}
	progs, err := j.rebuild(states)
	if err != nil {
		return err
	}
	j.state = failed // until every rank is relaunched
	for _, rank := range j.ranks() {
		j.workers[rank].retire()
	}
	j.epoch++
	ts, err := j.open(len(states))
	if err != nil {
		return err
	}
	j.p = len(states)
	j.workers = make(map[int]*Worker, len(states))
	j.launch(states, progs, ts)
	j.start(j.ranks())
	j.state, j.ndone = running, 0
	return nil
}

// open opens the channels of ranks 0..n-1 at the current epoch, by rank,
// or closes those it opened and returns why a rank's failed.
func (j *Job) open(n int) ([]msg.Transport, error) {
	ts := make([]msg.Transport, n)
	for rank := range ts {
		t, err := j.factory(rank, j.epoch)
		if err != nil {
			for _, t := range ts[:rank] {
				t.Close()
			}
			return nil, fmt.Errorf("opening rank %d's channels at epoch %d: %w", rank, j.epoch, err)
		}
		ts[rank] = t
	}
	return ts, nil
}

// launch is step 4: the ranks of a set of dumps, restored into progs, get
// fresh workers over their channels ts, by rank, ready to start. The
// workers they replace, whose compute loops have exited, retire.
func (j *Job) launch(states []*dump.State, progs []Program, ts []msg.Transport) {
	for i, st := range states {
		if w := j.workers[st.Rank]; w != nil {
			w.retire()
		}
		st.Epoch = j.epoch
		j.workers[st.Rank] = newWorker(progs[i], ts[st.Rank], j.epoch, j.events, st.Step)
	}
}

// checkSet refuses a dump set that is not one dump per rank 0..len-1, all
// at one step, and returns that step.
func checkSet(states []*dump.State) (int, error) {
	seen := make([]bool, len(states))
	for _, st := range states {
		if st.Rank < 0 || st.Rank >= len(seen) || seen[st.Rank] {
			return 0, fmt.Errorf("dump of rank %d is out of range or repeated (%d ranks)", st.Rank, len(seen))
		}
		seen[st.Rank] = true
	}
	return dump.CommonStep(states)
}
