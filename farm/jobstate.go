package farm

import (
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/decomp"
)

// jobState is the scheduler's view of one job: its spec and workload,
// its placement, and the accounting a checkpoint persists verbatim.
type jobState struct {
	spec JobSpec
	work Workload
	seq  int // submission sequence number: the tie-break among equal arrivals on pending
	res  *cluster.Reservation

	// shape is the job's per-axis span assignment, fixed at the first
	// placement (speed-weighted when that strictly beats uniform on the
	// mixed pool) and preserved across suspensions and migrations — the
	// rank dumps only fit one geometry. Zero means uniform.
	shape decomp.Shape

	// The spec is never mutated: after a resize, espec carries the
	// current lattice (CurJX/CurJY/CurJZ) with the original grid pinned.
	ckpt.Accounting
}

// espec returns the job's effective spec: the submitted spec until the
// first resize, afterwards a copy carrying the current lattice with the
// original global grid pinned, so every pricing, shape validation and
// rank-count decision measures the same problem on the new rank count.
func (j *jobState) espec() JobSpec {
	// A resize sets the whole current lattice. Any non-zero part of one
	// counts, so a partial record fails the effective spec's Validate.
	if j.CurJX == 0 && j.CurJY == 0 && j.CurJZ == 0 {
		return j.spec
	}
	e := j.spec
	e.GX, e.GY, e.GZ = j.spec.Grid()
	e.JX, e.JY, e.JZ = j.CurJX, j.CurJY, j.CurJZ
	return e
}

// ranks is espec().Ranks() without the copy: a pass asks every queued job.
func (j *jobState) ranks() int {
	if j.CurJX == 0 && j.CurJY == 0 && j.CurJZ == 0 {
		return j.spec.Ranks()
	}
	return JobSpec{JX: j.CurJX, JY: j.CurJY, JZ: j.CurJZ}.Ranks()
}

// userKey returns the job's tenant; an unnamed user makes the job its
// own tenant.
func (j *jobState) userKey() string {
	if j.spec.User != "" {
		return j.spec.User
	}
	return j.spec.ID
}

// fairShare is the WeightedFair key: the tenant's virtual service time
// per unit weight.
func (f *Farm) fairShare(j *jobState) float64 {
	w := j.spec.Weight
	if w <= 0 {
		w = 1
	}
	return f.servedByUser[j.userKey()].Seconds() / w
}

// creditService charges served time to the job and its tenant.
func (f *Farm) creditService(j *jobState, d time.Duration) {
	j.Served += d
	f.servedByUser[j.userKey()] += d
}

// remainingAt extrapolates the steps a running job has left at t, at
// the pace it was priced at when placed.
func (j *jobState) remainingAt(t time.Duration) float64 {
	rem := j.Remaining - (t-j.PlacedAt).Seconds()/j.StepSec
	if rem < 0 {
		rem = 0
	}
	return rem
}

// settle credits the progress a running job made since PlacedAt at its
// old pace, then re-anchors it at t, so a new price or a suspension
// never re-counts the run so far.
func (f *Farm) settle(j *jobState, t time.Duration) {
	j.Remaining = j.remainingAt(t)
	f.creditService(j, t-j.PlacedAt)
	j.PlacedAt = t
}

// finish returns when the job's remaining steps end, run from t at sec
// seconds per step.
func (j *jobState) finish(t time.Duration, sec float64) time.Duration {
	return t + time.Duration(j.Remaining*sec*float64(time.Second))
}

// retime re-derives the finish time from t at the job's current price.
func (j *jobState) retime(t time.Duration) { j.FinishAt = j.finish(t, j.StepSec) }

// metricsJob converts a job's accounting into its metrics record.
func metricsJob(js *jobState) JobMetrics {
	return JobMetrics{
		ID:          js.spec.ID,
		Ranks:       js.ranks(),
		Priority:    js.spec.Priority,
		Submit:      js.spec.Submit,
		FirstStart:  js.FirstStart,
		Done:        js.DoneAt,
		Served:      js.Served,
		Preemptions: js.Preempts,
		Backfilled:  js.Backfilled,
		Migrations:  js.Migrations,
		Repricings:  js.Repricings,
		Resizes:     js.Resizes,
		GrowRanks:   js.GrowRanks,
		ShrinkRanks: js.ShrinkRanks,
		Weighted:    !js.shape.IsZero(),
		Imbalance:   js.Imbalance,
	}
}
