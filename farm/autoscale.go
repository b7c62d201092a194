package farm

import "time"

// AutoscaleControl is the deterministic handle a WithAutoscaler
// callback receives each control tick: Sample captures the farm's
// supply/demand state, Resize actuates a decision and Decide records one
// on the event stream without acting, all synchronously on the
// scheduling goroutine at one virtual instant — the control loop in
// farm/autoscale is pure policy over this handle. The handle is only
// valid inside the callback invocation that received it.
type AutoscaleControl struct {
	f *Farm
	t time.Duration
}

// Sample captures the farm's state at this tick: queue depth, free and
// total hosts, and one JobSample per running and queued job, with
// progress extrapolated to the tick's instant.
func (c AutoscaleControl) Sample() Sample {
	f := c.f
	sm := Sample{
		T:          c.t,
		QueueDepth: len(f.queue),
		FreeHosts:  f.cluster.Capacity(f.selection),
		TotalHosts: len(f.cluster.Hosts),
	}
	for _, js := range f.running {
		sm.Running = append(sm.Running, jobSample(js, c.t, true))
	}
	for _, js := range f.queue {
		sm.Queued = append(sm.Queued, jobSample(js, c.t, false))
	}
	return sm
}

// Resize resizes the running job to n ranks, synchronously: the
// workload has re-split and the job is repriced when it returns nil.
// Errors are the typed resize errors (ErrUnknownJob, ErrNotRunning,
// ErrNoCapacity, or the workload's refusal) and leave the job running
// on its old decomposition.
func (c AutoscaleControl) Resize(id string, n int) error {
	return c.f.resizeByID(id, n, c.t)
}

// Decide records a policy decision on the event stream without acting
// on it, so hold decisions and the reasons behind grows/shrinks show up
// in traces. The policy calls it before (or instead of) Resize.
func (c AutoscaleControl) Decide(id, action string, from, to int, reason string) {
	c.f.emit(AutoscaleDecision{T: c.t, ID: id, Action: action, From: from, To: to, Reason: reason})
}

// Sample is one control tick's view of the farm; the farm/autoscale
// policies decide over it.
type Sample struct {
	T time.Duration
	// QueueDepth counts the admitted jobs waiting for placement.
	QueueDepth int
	// FreeHosts is how many hosts a reservation could claim right now
	// (the section-4.1 selection criteria applied); TotalHosts the pool
	// size.
	FreeHosts  int
	TotalHosts int
	Running    []JobSample
	Queued     []JobSample
}

// JobSample is one job's state inside a Sample.
type JobSample struct {
	ID string
	// Ranks is the current rank count (after resizes); SpecRanks the
	// submitted one — the policy's shrink-back target.
	Ranks     int
	SpecRanks int
	// Steps is the job's total integration steps; Remaining how many are
	// left at this tick (fractional; extrapolated at the current pace
	// for a running job), and Progress the completed fraction in [0,1].
	Steps     int
	Remaining float64
	Progress  float64
	// StepSec is the priced per-step estimate (0 until first placement).
	StepSec float64
	Running bool
}

// jobSample extrapolates a job's progress to the tick's instant.
func jobSample(js *jobState, t time.Duration, running bool) JobSample {
	rem := js.Remaining
	if running && js.StepSec > 0 {
		rem = js.remainingAt(t)
	}
	p := 0.0
	if js.spec.Steps > 0 {
		p = 1 - rem/float64(js.spec.Steps)
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
	}
	return JobSample{
		ID:        js.spec.ID,
		Ranks:     js.ranks(),
		SpecRanks: js.spec.Ranks(),
		Steps:     js.spec.Steps,
		Remaining: rem,
		Progress:  p,
		StepSec:   js.StepSec,
		Running:   running,
	}
}
