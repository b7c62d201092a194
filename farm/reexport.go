package farm

import (
	"repro/internal/cluster"
	"repro/internal/decomp"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/sched/metrics"
)

// Cluster is the virtual workstation pool a farm schedules onto, and
// Host one of its machines; NewPaperCluster builds the paper's 25-host
// HP9000/700 pool, so the common path — build a pool, run a farm —
// needs no internal import. Scenario callbacks receive the *Cluster to
// script user activity (Reclaim, UserGone) against it.
type (
	Cluster = cluster.Cluster
	Host    = cluster.Host
)

// NewPaperCluster builds the paper's 25-workstation pool (16x 715/50,
// 4x 720, 5x 710) with its calibrated speed table and activity model.
func NewPaperCluster() *Cluster { return cluster.NewPaperCluster() }

// JobSpec describes one job of the farm: the decomposed simulation it
// stands for (method, decomposition, subregion side), how long it runs,
// and how the queue should treat it (priority, tenant, weight, arrival
// time). See the field docs in the scheduler's definition; the spec
// drives the virtual-time accounting whether or not a real simulation
// is attached.
type JobSpec = sched.JobSpec

// Workload is the functional side of a scheduled job: what actually
// runs when the farm places it (Start/Suspend/Resume/Migrate/Finish,
// plus the Checkpoint/Restore durability hooks). Pass nil to Submit for
// a spec-only replay.
type Workload = sched.Workload

// CoreWorkload drives a real core.Job under the farm: preemption and
// migration go through the section-5.1 dump/rebuild protocol, so the
// simulation's results stay bit-identical to an undisturbed run.
type CoreWorkload = sched.CoreWorkload

// WorkloadFactory rebuilds the functional side of one restored job from
// its spec; WorkloadRegistry maps job IDs to factories for Restore.
type (
	WorkloadFactory  = sched.WorkloadFactory
	WorkloadRegistry = sched.WorkloadRegistry
)

// Policy selects the queueing discipline.
type Policy = sched.Policy

const (
	// FIFO runs jobs in submission order (ties broken by ID).
	FIFO = sched.FIFO
	// Priority runs the highest-priority job first and preempts running
	// lower-priority jobs when the head of the queue cannot fit.
	Priority = sched.Priority
	// WeightedFair picks the queued job with the least virtual service
	// time per unit weight.
	WeightedFair = sched.WeightedFair
)

// ParsePolicy maps a policy name (fifo, priority, fair) to its Policy.
func ParsePolicy(s string) (Policy, error) { return sched.ParsePolicy(s) }

// BackfillMode selects how jobs behind a blocked queue head may use the
// gaps its ranks cannot fill.
type BackfillMode = sched.BackfillMode

const (
	// BackfillNone enforces strict head-of-line order.
	BackfillNone = sched.BackfillNone
	// BackfillAggressive places any queued job that fits right now —
	// the starvation-prone pre-EASY behaviour.
	BackfillAggressive = sched.BackfillAggressive
	// BackfillEASY bounds the head's extra wait with a reservation at
	// its projected start. The default.
	BackfillEASY = sched.BackfillEASY
)

// ParseBackfill maps a backfill mode name (none, aggressive, easy) to
// its BackfillMode.
func ParseBackfill(s string) (BackfillMode, error) { return sched.ParseBackfill(s) }

// Sentinel errors; Submit wraps them with job context, so check with
// errors.Is.
var (
	// ErrClosed rejects a submission after Drain.
	ErrClosed = sched.ErrClosed
	// ErrDuplicateID rejects a job ID the farm has already accepted.
	ErrDuplicateID = sched.ErrDuplicateID
	// ErrNoCapacity rejects a job that needs more ranks than the pool
	// has hosts.
	ErrNoCapacity = sched.ErrNoCapacity
	// ErrInvalidSpec wraps every JobSpec validation failure.
	ErrInvalidSpec = sched.ErrInvalidSpec
	// ErrInterrupted is wrapped by Run when Interrupt (or a canceled
	// context) aborts the event loop.
	ErrInterrupted = sched.ErrInterrupted
	// ErrUnknownJob flags a resize request for an ID the farm never
	// accepted.
	ErrUnknownJob = sched.ErrUnknownJob
	// ErrNotRunning flags a resize request for a job the farm knows but
	// is not currently running (pending, queued, suspended or finished):
	// only a placed job has a reservation to grow or shrink.
	ErrNotRunning = sched.ErrNotRunning
)

// AutoscaleControl is the deterministic handle a WithAutoscaler callback
// receives each control tick: Sample captures the farm's supply/demand
// state at one virtual instant, Resize actuates a decision synchronously,
// and Decide records a policy decision on the event stream without
// acting. The handle is only valid inside the callback invocation that
// received it.
type AutoscaleControl = sched.AutoscaleControl

// Sample is one control tick's view of the farm — queue depth, free and
// total hosts, and a JobSample per running and queued job with progress
// extrapolated to the tick's instant. The farm/autoscale policies decide
// over it.
type (
	Sample    = sched.Sample
	JobSample = sched.JobSample
)

// Summary aggregates a finished farm run; JobMetrics is one job's
// lifecycle record within it.
type (
	Summary    = metrics.Summary
	JobMetrics = metrics.Job
)

// RNG is the farm's serializable random source: SplitMix64, whose
// entire state is one word (State/SetState), with Derive splitting off
// independent deterministic substreams per label. The scheduler drives
// its randomized placement scan with it, and farm/workload draws seeded
// arrival processes and job distributions from it, so a (spec, seed)
// pair is bit-reproducible.
type RNG = sched.SplitMix

// NewRNG returns a seeded RNG.
func NewRNG(seed int64) *RNG { return sched.NewSplitMix(seed) }

// Shape is a decomposition's per-axis span assignment — the zero value
// means uniform splitting. StepTimer implementations receive the shape
// being priced; WeightedShape builds them.
type Shape = decomp.Shape

// StepTimer estimates the wall-clock seconds one integration step of a
// job takes on a given placement; the farm prices every placement,
// resumption and migration through it.
type StepTimer = sched.StepTimer

// ComputeTimer is the communication-free estimate: the parallel step
// runs at the pace of the slowest rank's local compute. The default.
func ComputeTimer(spec JobSpec, shape decomp.Shape, hosts []*cluster.Host) (float64, error) {
	return sched.ComputeTimer(spec, shape, hosts)
}

// PerfTimer prices each step through the perf discrete-event engine
// over a netFn() network, adding the halo-exchange and pipeline effects
// the compute-only estimate ignores.
func PerfTimer(netFn func() netsim.Network) StepTimer { return sched.PerfTimer(netFn) }

// WeightedShape returns the spec's speed-weighted shape for a
// placement: hosts[rank] serves rank, and per-rank spans are sized
// proportionally to host speed. Equal speeds reproduce the uniform
// (equal-spans) shape bit for bit. The hetero experiment builds on it
// and on Imbalance.
func WeightedShape(spec JobSpec, hosts []*cluster.Host) (decomp.Shape, error) {
	return sched.WeightedShape(spec, hosts)
}

// Imbalance returns a placement's load-imbalance ratio under a shape:
// the slowest rank's compute time over the perfectly balanced ideal
// (1.0 is perfect balance).
func Imbalance(spec JobSpec, shape decomp.Shape, hosts []*cluster.Host) (float64, error) {
	return sched.Imbalance(spec, shape, hosts)
}
