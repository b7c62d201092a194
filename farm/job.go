package farm

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrStopped is returned by Job.Wait when the farm's Run returned —
// drained, interrupted or failed — before the job finished.
var ErrStopped = errors.New("farm run ended before the job finished")

// Status is a job's position in the farm lifecycle. Its names are the
// checkpoint manifest's job phases.
type Status int

const (
	// StatusPending: submitted, arrival time not yet reached.
	StatusPending Status = iota
	// StatusQueued: admitted (or preempted back), waiting for placement.
	StatusQueued
	// StatusRunning: placed on a reservation, accruing virtual time.
	StatusRunning
	// StatusFinished: completed; Metrics is final.
	StatusFinished
)

func (st Status) String() string {
	switch st {
	case StatusPending:
		return "pending"
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusFinished:
		return "finished"
	}
	return fmt.Sprintf("Status(%d)", int(st))
}

// Job is the typed handle Submit returns: it tracks one job through the
// farm without exposing its scheduling state. All methods are safe from
// any goroutine while the farm runs.
type Job struct {
	id string
	f  *Farm

	mu     sync.Mutex
	status Status
	rec    JobMetrics
	hasRec bool
	done   chan struct{} // closed when the job finishes
}

func newJob(f *Farm, id string) *Job {
	return &Job{id: id, f: f, done: make(chan struct{})}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status returns the job's current lifecycle position, maintained from
// the farm's event stream (preemption moves a job back to
// StatusQueued; migration keeps it StatusRunning).
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Metrics returns the job's final metrics record; ok is false until the
// job has finished.
func (j *Job) Metrics() (JobMetrics, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec, j.hasRec
}

// Done returns a channel closed when the job finishes — the select-able
// form of Wait.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes (nil), the context is done
// (ctx.Err()), or the farm's Run returns without finishing it (an error
// wrapping ErrStopped, and the run's own error when it failed). Wait
// may start before Run does, and a waiter that outlives one Run re-arms
// on the next: it reports ErrStopped only for the run generation that
// actually ended without finishing the job.
func (j *Job) Wait(ctx context.Context) error {
	_, err := awaitRun(ctx, j.f, j.done, "job "+j.id)
	return err
}

// Resize asks the farm to re-decompose the running job onto n ranks at
// the event loop's current virtual time: the job suspends at a step
// boundary, re-splits onto a near-square lattice of n subregions within
// its original global grid, and continues bit-identically on the new
// placement (growing claims extra hosts, shrinking releases the tail).
// Resizing to the current rank count is a no-op.
//
// Safe from any goroutine; the request is processed by the next loop
// iteration and Resize blocks until it is answered, the context is done
// (ctx.Err()), or the farm's Run returns without answering (an error
// wrapping ErrStopped). Failures are typed — ErrUnknownJob,
// ErrNotRunning, ErrNoCapacity, or the workload's refusal (a simulation
// with the seam-dependent filter enabled cannot resize) — and leave the
// job running on its old decomposition.
func (j *Job) Resize(ctx context.Context, n int) error {
	answer, err := awaitRun(ctx, j.f, j.f.requestResize(j.id, n), "resize "+j.id)
	if err != nil {
		return err
	}
	return answer
}

// awaitRun receives from ch, or returns ctx.Err() when the context is
// done first, or an error wrapping ErrStopped (and the run's own error
// when it failed) when the farm's Run returns without ch delivering.
// what names the waiter in that error. A waiter that outlives one Run
// re-arms on the next: ErrStopped is reported only for the run
// generation that actually ended.
func awaitRun[T any](ctx context.Context, f *Farm, ch <-chan T, what string) (T, error) {
	if ctx == nil {
		ctx = context.Background() // tolerate nil like Farm.Run does
	}
	var zero T
	for {
		f.hmu.Lock()
		rs := f.run
		f.hmu.Unlock()
		select {
		case v := <-ch:
			return v, nil
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-rs.done:
			// That run returned; ch may have delivered in its last round.
			select {
			case v := <-ch:
				return v, nil
			default:
			}
			f.hmu.Lock()
			superseded := f.run != rs
			f.hmu.Unlock()
			if superseded {
				// A newer Run took over while this waiter slept; wait on
				// it instead of reporting a stale generation's ending.
				continue
			}
			if rs.err != nil {
				return zero, fmt.Errorf("farm: %s: %w: %w", what, ErrStopped, rs.err)
			}
			return zero, fmt.Errorf("farm: %s: %w", what, ErrStopped)
		}
	}
}

// finish records the job's completion.
func (j *Job) finish(rec JobMetrics) {
	j.mu.Lock()
	j.status = StatusFinished
	j.rec, j.hasRec = rec, true
	j.mu.Unlock()
	close(j.done)
}

// setStatus records a lifecycle transition short of completion.
func (j *Job) setStatus(st Status) {
	j.mu.Lock()
	j.status = st
	j.mu.Unlock()
}
