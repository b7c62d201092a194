package farm

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dump"
)

// Workload is the functional side of a scheduled job: what actually runs
// when the scheduler places it. The scheduler calls Start on first
// placement, Suspend when the job is preempted, Resume on re-placement
// (hosts may differ — that is the point of migration), Migrate when some
// of the job's ranks move to new hosts mid-run because regular users
// reclaimed theirs, and Finish once the job's virtual runtime has
// elapsed.
//
// Checkpoint and Restore are the farm-level durability hooks: Checkpoint
// returns the per-rank dump states the coordinator persists to disk —
// without giving up the placement, so a running job keeps running — and
// Restore hands a freshly rebuilt workload the states loaded back from
// disk, to be consumed by the next Resume. Stateless workloads return
// nil states and ignore Restore.
type Workload interface {
	Start(hosts []*cluster.Host) error
	Suspend() error
	Resume(hosts []*cluster.Host) error
	// Migrate moves ranks[i] to hosts[i] while the rest of the job keeps
	// its placement.
	Migrate(ranks []int, hosts []*cluster.Host) error
	// Resize re-decomposes the running workload onto len(hosts) ranks at
	// a step boundary: shape is the resolved per-axis span assignment of
	// the new lattice and hosts[rank] serves new rank. Called only while
	// the workload is placed; a refusal (filter on, deactivated
	// subregions) must leave it running on its old decomposition.
	Resize(shape decomp.Shape, hosts []*cluster.Host) error
	Finish() error
	// Checkpoint returns the workload's current per-rank states (ordered
	// by rank) for persistence. A suspended workload returns the states
	// it already holds; a running one snapshots without stopping.
	Checkpoint() ([]*dump.State, error)
	// Restore hands back states loaded from a persisted checkpoint; the
	// next Resume (or the pending placement) continues from them.
	Restore(states []*dump.State) error
}

// nullWorkload replays scheduling decisions only — no simulation runs.
// Trace replays and policy experiments use it: all metrics come from the
// virtual-time accounting.
type nullWorkload struct{}

func (nullWorkload) Start([]*cluster.Host) error                { return nil }
func (nullWorkload) Suspend() error                             { return nil }
func (nullWorkload) Resume([]*cluster.Host) error               { return nil }
func (nullWorkload) Migrate([]int, []*cluster.Host) error       { return nil }
func (nullWorkload) Resize(decomp.Shape, []*cluster.Host) error { return nil }
func (nullWorkload) Finish() error                              { return nil }
func (nullWorkload) Checkpoint() ([]*dump.State, error)         { return nil, nil }
func (nullWorkload) Restore([]*dump.State) error                { return nil }

// CoreWorkload drives a real core.Job under the scheduler: Start launches
// the workers, Suspend checkpoints every rank through the section-5.1
// migration dump path, Resume rebuilds them from the dumps at the next
// communication epoch, and Finish waits for completion and shuts the job
// down. The dump/rebuild round trip is what makes preemption safe — the
// preempted simulation's results stay bit-identical to an unpreempted
// run. The farm's reservation places the job: the hosts go unread.
type CoreWorkload struct {
	Job *core.Job
	// Deprecated: ignored; the farm's reservation places the job. Kept
	// only for callers that still set it.
	Cluster *cluster.Cluster

	states []*dump.State
}

// Start launches the job.
func (c *CoreWorkload) Start([]*cluster.Host) error {
	if c.Job == nil {
		return fmt.Errorf("farm: CoreWorkload without a Job")
	}
	return c.Job.Start()
}

// Suspend checkpoints the whole job and stops its workers.
func (c *CoreWorkload) Suspend() error {
	states, err := c.Job.Suspend()
	if err != nil {
		return err
	}
	c.states = states
	return nil
}

// Resume restarts the job from its checkpoint on the new hosts.
func (c *CoreWorkload) Resume([]*cluster.Host) error {
	err := c.Job.Resume(c.states)
	c.states = nil
	return err
}

// Migrate executes the section-5.1 protocol for just the displaced
// ranks: every process synchronizes, the displaced ones dump and exit,
// and they restart from their dumps at the next communication epoch on
// the new hosts. The rest of the job never leaves its machines, and the
// computation stays bit-identical.
func (c *CoreWorkload) Migrate(ranks []int, _ []*cluster.Host) error {
	return c.Job.MigrateRanks(ranks, nil)
}

// Resize re-splits the job onto the new lattice at a step boundary; the
// scheduler has already renumbered the cluster-side assignments.
func (c *CoreWorkload) Resize(shape decomp.Shape, _ []*cluster.Host) error {
	if c.Job == nil {
		return fmt.Errorf("farm: CoreWorkload without a Job")
	}
	return c.Job.Resize(shape)
}

// Checkpoint returns the job's per-rank dump states for persistence. A
// suspended job hands over the checkpoint it already holds; a running job
// snapshots through core.Job.Snapshot — every rank pauses at the sync
// step, dumps and continues in place, so the job never leaves its machines,
// nothing is rebuilt and the results stay bit-identical. Its states are
// valid until the job's next Snapshot.
func (c *CoreWorkload) Checkpoint() ([]*dump.State, error) {
	if c.Job == nil {
		return nil, fmt.Errorf("farm: CoreWorkload without a Job")
	}
	if c.states != nil {
		return c.states, nil
	}
	return c.Job.Snapshot()
}

// Restore hands the workload states loaded from a persisted checkpoint.
// The workload must be freshly built (no checkpoint of its own yet); the
// next Resume rebuilds every rank from these states.
func (c *CoreWorkload) Restore(states []*dump.State) error {
	if c.Job == nil {
		return fmt.Errorf("farm: CoreWorkload without a Job")
	}
	if len(states) != c.Job.P() {
		return fmt.Errorf("farm: restoring %d states into a %d-rank job", len(states), c.Job.P())
	}
	if c.states != nil {
		return fmt.Errorf("farm: restore over an existing %d-rank checkpoint", len(c.states))
	}
	c.states = states
	return nil
}

// Finish waits for every rank to complete and shuts the job down.
func (c *CoreWorkload) Finish() error {
	if err := c.Job.WaitDone(); err != nil {
		return err
	}
	c.Job.Shutdown()
	return nil
}
