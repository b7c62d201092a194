package farm

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/metrics"
)

// now returns the farm-relative virtual time.
func (f *Farm) now() time.Duration { return f.cluster.Now() - f.start }

// drained reports whether the farm holds no work at all.
func (f *Farm) drained() bool {
	return len(f.pending) == 0 && len(f.queue) == 0 && len(f.running) == 0
}

// loop is Run's event loop: jobs are admitted as their arrival times
// pass, reclaimed hosts are vacated by migration, and completions retire
// in virtual time. It returns the metrics summary once the farm holds
// no work at all.
func (f *Farm) loop(ctx context.Context) (Summary, error) {
	if !f.restored {
		f.start = f.cluster.Now()
	}
	now := f.now
	stallSince := time.Duration(-1)
	for {
		if err := f.stopped(ctx); err != nil {
			return Summary{}, err
		}
		t := now()
		f.admit(t)
		if err := f.handleReclaims(t); err != nil {
			return Summary{}, err
		}
		if err := f.scheduleRound(t); err != nil {
			return Summary{}, err
		}
		if f.drained() {
			break
		}
		next, ok := f.nextEvent()
		if !ok {
			// Nothing running and no arrivals due: the queue is blocked
			// on host conditions (user load, idle thresholds). Let
			// virtual time pass so loads decay and users go idle; give
			// up after a simulated week without progress.
			next = t + time.Minute
			if stallSince < 0 {
				stallSince = t
			}
			if t-stallSince > 7*24*time.Hour {
				return Summary{}, fmt.Errorf("farm: stalled for a simulated week with %d jobs queued (pool %d hosts)",
					len(f.queue), len(f.cluster.Hosts))
			}
		} else {
			stallSince = -1
		}
		// Scenario, autoscale and auto-checkpoint ticks cap the advance so
		// scripted user activity, control-loop samples and periodic saves
		// land at exact virtual times. At one instant they run in that
		// order, then completions retire; the loop top follows (interrupt
		// check, admissions, reclaims, placement).
		tick, scale, save := time.Duration(-1), time.Duration(-1), time.Duration(-1)
		if f.scenario != nil && f.scenarioEvery > 0 {
			tick = nextTick(t, f.scenarioEvery)
			next = min(next, tick)
		}
		if f.autoscale != nil && f.autoscaleEvery > 0 {
			scale = nextTick(t, f.autoscaleEvery)
			next = min(next, scale)
		}
		if f.ckptEvery > 0 {
			save = nextTick(t, f.ckptEvery)
			next = min(next, save)
		}
		if dt := next - t; dt > 0 {
			f.cluster.Advance(dt)
		}
		t = now()
		if tick >= 0 && t == tick {
			f.scenario(t, f.cluster)
			if err := f.stopped(ctx); err != nil {
				return Summary{}, err
			}
		}
		if scale >= 0 && t == scale {
			f.autoscale(t, AutoscaleControl{f: f, t: t})
		}
		if save >= 0 && t == save {
			if err := f.checkpoint(); err != nil {
				return Summary{}, fmt.Errorf("farm: auto-checkpoint at %v: %w", t, err)
			}
		}
		if err := f.complete(t); err != nil {
			return Summary{}, err
		}
	}
	return f.summary(), nil
}

// nextTick returns the first multiple of every strictly after t.
func nextTick(t, every time.Duration) time.Duration {
	return t - t%every + every
}

// arrivals holds the jobs not yet admitted as a min-heap on (Submit,
// seq), so the event loop reads the next arrival off the top instead of
// scanning every job still to come.
type arrivals []*jobState

func (a arrivals) Len() int      { return len(a) }
func (a arrivals) Swap(i, j int) { a[i], a[j] = a[j], a[i] }
func (a arrivals) Less(i, j int) bool {
	return cmp.Or(cmp.Compare(a[i].spec.Submit, a[j].spec.Submit), cmp.Compare(a[i].seq, a[j].seq)) < 0
}
func (a *arrivals) Push(x any) { *a = append(*a, x.(*jobState)) }
func (a *arrivals) Pop() any {
	js := (*a)[len(*a)-1]
	*a = (*a)[:len(*a)-1]
	return js
}

// arrive numbers the job and puts it on pending, under f.mu (or in
// Restore, before f is shared).
func (f *Farm) arrive(js *jobState) {
	js.seq = f.submitted
	f.submitted++
	heap.Push(&f.pending, js)
}

func bySeq(jobs []*jobState) {
	slices.SortFunc(jobs, func(a, b *jobState) int { return cmp.Compare(a.seq, b.seq) })
}

// admit moves every job whose arrival time has passed into the queue, in
// submission order.
func (f *Farm) admit(t time.Duration) {
	n := len(f.queue)
	for len(f.pending) > 0 && f.pending[0].spec.Submit <= t {
		f.queue = append(f.queue, heap.Pop(&f.pending).(*jobState))
	}
	admitted := f.queue[n:]
	bySeq(admitted)
	for _, js := range admitted {
		f.emit(JobQueued{T: t, ID: js.spec.ID})
	}
}

// nextEvent returns the earliest upcoming arrival or completion.
func (f *Farm) nextEvent() (time.Duration, bool) {
	best := time.Duration(-1)
	if len(f.pending) > 0 {
		best = f.pending[0].spec.Submit
	}
	for _, js := range f.running {
		if best < 0 || js.FinishAt < best {
			best = js.FinishAt
		}
	}
	return best, best >= 0
}

// complete retires every running job whose virtual finish time has
// arrived, letting the workload drain and releasing the hosts.
func (f *Farm) complete(t time.Duration) error {
	for i := 0; i < len(f.running); {
		js := f.running[i]
		if js.FinishAt > t {
			i++
			continue
		}
		f.creditService(js, js.FinishAt-js.PlacedAt)
		js.Remaining = 0
		js.DoneAt = js.FinishAt
		if err := js.work.Finish(); err != nil {
			return fmt.Errorf("farm: finishing %s: %w", js.spec.ID, err)
		}
		js.res.Release()
		js.res = nil
		f.running = append(f.running[:i], f.running[i+1:]...)
		f.finished = append(f.finished, js)
		f.emit(JobFinished{T: js.DoneAt, ID: js.spec.ID, Job: metricsJob(js)})
	}
	return nil
}

// summary converts the finished jobs into the metrics report.
func (f *Farm) summary() Summary {
	jobs := make([]JobMetrics, len(f.finished))
	for i, js := range f.finished {
		jobs[i] = metricsJob(js)
	}
	sum := metrics.Summarize(jobs, len(f.cluster.Hosts))
	sum.Reclaims = f.reclaims
	sum.EASYDegraded = f.easyDegraded
	return sum
}

// byPhase lists every job the farm holds, indexed by Status: pending in
// submission order, then the queue, running and finished lists in order.
func (f *Farm) byPhase() [4][]*jobState {
	pending := slices.Clone([]*jobState(f.pending))
	bySeq(pending)
	return [4][]*jobState{pending, f.queue, f.running, f.finished}
}
