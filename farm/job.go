package farm

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrStopped is returned by Job.Wait when the farm's Run returned —
// canceled or failed — before the job finished.
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

// Wait blocks until the job finishes (nil), the context is done
// (ctx.Err()), or the farm's Run returns without finishing it (an error
// wrapping ErrStopped, and the run's own error when it failed). Wait
// may start before Run does.
func (j *Job) Wait(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background() // tolerate nil like Farm.Run does
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-j.f.runDone:
	}
	// Run has returned; the job may have finished in its last round.
	select {
	case <-j.done:
		return nil
	default:
	}
	if err := j.f.runErr; err != nil {
		return fmt.Errorf("farm: job %s: %w: %w", j.id, ErrStopped, err)
	}
	return fmt.Errorf("farm: job %s: %w", j.id, ErrStopped)
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
