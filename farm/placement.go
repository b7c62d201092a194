package farm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/decomp"
)

// compare orders the queue under the active policy; every policy falls
// back to (Submit, ID) so rounds are deterministic.
func (f *Farm) compare(a, b *jobState) int {
	switch f.policy {
	case Priority:
		if c := cmp.Compare(b.spec.Priority, a.spec.Priority); c != 0 {
			return c
		}
	case WeightedFair:
		if c := cmp.Compare(f.fairShare(a), f.fairShare(b)); c != 0 {
			return c
		}
	}
	return cmp.Or(cmp.Compare(a.spec.Submit, b.spec.Submit), strings.Compare(a.spec.ID, b.spec.ID))
}

// scheduleRound places as many queued jobs as capacity (and, under
// Priority, preemption) allows, one placement per pass. Under
// BackfillEASY a candidate behind the blocked head must finish before the
// head's projected start (its virtual-finish-time reservation).
//
// A pass does only the work that can change its outcome (DESIGN.md): it
// sorts the queue only when the order broke, skips a job wider than the
// pass's capacity (Reserve would refuse it before drawing from the RNG),
// and keeps the head's shadow until the head is placed.
func (f *Farm) scheduleRound(t time.Duration) error {
	degradeCounted := false
	shadow, shadowSet := time.Duration(-1), false
	for {
		if !slices.IsSortedFunc(f.queue, f.compare) {
			slices.SortStableFunc(f.queue, f.compare)
		}
		free := f.cluster.Capacity(f.selection)
		placed := -1
		for i, js := range f.queue {
			deadline := time.Duration(-1)
			if i > 0 && f.backfill == BackfillEASY {
				if !shadowSet {
					shadow = f.projectedStart(f.queue[0])
					shadowSet = true
					if shadow < 0 && !degradeCounted {
						// No reservation is computable for the head:
						// completions alone never free enough usable hosts.
						// Fall back to aggressive backfill for this round —
						// explicitly, so operators can see the head's
						// protection lapse instead of it eroding silently.
						// (The shadow is re-derived when the head changes;
						// the round degrades once, however many passes run.)
						degradeCounted = true
						f.easyDegraded++
						f.emit(EASYDegraded{T: t, Head: f.queue[0].spec.ID, Ranks: f.queue[0].ranks()})
					}
				}
				deadline = shadow
			}
			if js.ranks() <= free {
				ok, err := f.tryPlace(js, t, deadline)
				if err != nil {
					return err
				}
				if ok {
					placed = i
					break
				}
			}
			if i == 0 && f.policy == Priority {
				ok, err := f.tryPreempt(js, t, free)
				if err != nil {
					return err
				}
				if ok {
					placed = 0
					break
				}
			}
			if f.backfill == BackfillNone {
				break
			}
		}
		if placed < 0 {
			return nil
		}
		js := f.queue[placed]
		f.queue = append(f.queue[:placed], f.queue[placed+1:]...)
		if placed > 0 {
			js.Backfilled = true
			f.emit(JobBackfilled{T: t, ID: js.spec.ID, Hosts: hostNames(js.res.Hosts),
				StepSec: js.StepSec, Finish: js.FinishAt, Weighted: !js.shape.IsZero()})
		} else {
			shadowSet = false
			f.emit(JobPlaced{T: t, ID: js.spec.ID, Hosts: hostNames(js.res.Hosts),
				StepSec: js.StepSec, Finish: js.FinishAt, Weighted: !js.shape.IsZero()})
		}
	}
}

// projectedStart estimates when the blocked queue head could start: the
// earliest virtual time at which enough hosts are reservable, assuming
// every running job returns its hosts at its virtual finish time and
// host conditions stay as they are. The shadow walk counts each
// finishing job's hosts individually — a host whose regular user has
// reclaimed it mid-run, or whose user load sits above the selection
// threshold, does not come back reservable when the job releases it, so
// it must not inflate the head's reservation. (Counting whole rank
// counts, as this walk once did, made the estimate optimistic under
// reclaim storms and silently eroded the head's protection.) It returns
// -1 when running-job completions alone never free enough hosts (the
// head waits on user activity instead) — no reservation is computable
// then, and EASY backfill explicitly degrades to the aggressive mode
// for the round (counted and announced by scheduleRound) until
// conditions change.
func (f *Farm) projectedStart(head *jobState) time.Duration {
	free := f.cluster.Capacity(f.selection)
	need := head.ranks()
	f.byFinish = append(f.byFinish[:0], f.running...)
	slices.SortStableFunc(f.byFinish, func(a, b *jobState) int { return cmp.Compare(a.FinishAt, b.FinishAt) })
	for _, r := range f.byFinish {
		if free >= need {
			break
		}
		if free += f.reusable(r); free >= need {
			return r.FinishAt
		}
	}
	return -1
}

// price is the one call of the step timer, and checks what it returns:
// a step priced at zero, below zero, or not finite would finish the job
// at a meaningless virtual time, so it is an error naming the job.
func (f *Farm) price(spec JobSpec, shape decomp.Shape, hosts []*cluster.Host) (float64, error) {
	sec, err := f.timer(spec, shape, hosts)
	if err == nil && !(sec > 0 && sec <= math.MaxFloat64) {
		return 0, fmt.Errorf("farm: job %s: step timer priced a step at %v s", spec.ID, sec)
	}
	return sec, err
}

// reusable counts the job's hosts that come back reservable when it
// releases them: a host whose regular user got busy since the job was
// placed frees no usable capacity.
func (f *Farm) reusable(js *jobState) int {
	n := 0
	for _, h := range js.res.Hosts {
		if h != nil && h.ReservableWhenFree(f.selection) {
			n++
		}
	}
	return n
}

// chooseShape picks a fresh placement's decomposition shape and returns
// it with its per-step price: the speed-weighted shape when it strictly
// beats the uniform one under the scheduler's own step pricing, the
// zero shape (= uniform splitting) otherwise. Comparing through price —
// not a fixed compute bound — matters under PerfTimer, where a weighted
// shape's longer boundary spans can cost more in halo exchange than its
// balanced compute saves; the comparison guarantees weighting never
// prices a placement worse than the identical-spans split would have,
// whichever timer the farm runs; a weighted shape that equals the
// uniform split prices the same and so never strictly beats it. Equal
// speeds produce a weighted shape bit-identical to the uniform one, so
// hosts of one speed go straight to uniform without building either.
// Returning the price lets tryPlace reuse it instead of running the
// timer — a whole discrete-event simulation under PerfTimer — a second
// time on the winning shape.
func (f *Farm) chooseShape(spec JobSpec, hosts []*cluster.Host) (decomp.Shape, float64, error) {
	f.speeds = rankSpeeds(f.speeds[:0], spec, hosts)
	if slices.Min(f.speeds) != slices.Max(f.speeds) {
		if w, err := weightedShape(spec, f.speeds); err == nil {
			wb, errW := f.price(spec, w, hosts)
			ub, errU := f.price(spec, decomp.Shape{}, hosts)
			if errW == nil && errU == nil && wb < ub {
				return w, wb, nil
			}
			return decomp.Shape{}, ub, errU
		}
	}
	sec, err := f.price(spec, decomp.Shape{}, hosts)
	return decomp.Shape{}, sec, err
}

// tryPlace reserves hosts for the job and starts (or resumes) it. A
// capacity shortfall returns (false, nil); workload failures are fatal.
// A non-negative deadline is an EASY backfill window: the placement is
// abandoned when the job's projected finish would overrun it. The caller
// announces a successful placement: JobPlaced and JobBackfilled differ by
// queue position, which tryPlace does not see.
//
// A job's decomposition shape is decided here, at its first placement:
// the speed-weighted shape when it strictly beats uniform splitting on
// the reserved hosts, uniform otherwise (chooseShape). A job that has
// started before keeps the shape it dumped with — resumptions and
// migrations reprice the same geometry on the new hosts.
func (f *Farm) tryPlace(js *jobState, t time.Duration, deadline time.Duration) (bool, error) {
	res, err := f.cluster.Reserve(js.spec.ID, js.ranks(), f.selection, f.rng)
	if errors.Is(err, cluster.ErrShortfall) {
		return false, nil // Reserve draws nothing from the RNG on a shortfall
	}
	if err != nil {
		return false, fmt.Errorf("farm: placing %s: %w", js.spec.ID, err)
	}
	shape, sec := js.shape, 0.0
	if !js.Started {
		shape, sec, err = f.chooseShape(js.spec, res.Hosts)
	} else {
		// A resized job resumes on its current lattice (espec), with the
		// shape it dumped under.
		sec, err = f.price(js.espec(), shape, res.Hosts)
	}
	if err != nil {
		res.Release()
		return false, err
	}
	finish := js.finish(t, sec)
	if deadline >= 0 && finish > deadline {
		res.Release()
		return false, nil
	}
	imb, err := Imbalance(js.espec(), shape, res.Hosts)
	if err != nil {
		res.Release()
		return false, err
	}
	js.shape = shape
	js.Imbalance = imb
	js.res = res
	js.StepSec = sec
	js.PlacedAt = t
	js.FinishAt = finish
	if !js.Started {
		js.Started = true
		js.FirstStart = t
		err = js.work.Start(res.Hosts)
	} else {
		err = js.work.Resume(res.Hosts)
	}
	if err != nil {
		res.Release()
		return false, fmt.Errorf("farm: starting %s: %w", js.spec.ID, err)
	}
	f.running = append(f.running, js)
	return true, nil
}

// tryPreempt makes room for the blocked queue head by suspending running
// jobs of strictly lower priority — lowest priority first, most recently
// placed first among equals — then places the head. free is the pool's
// capacity now. When every lower-priority job together frees too few
// reusable hosts, it returns before choosing any.
func (f *Farm) tryPreempt(js *jobState, t time.Duration, free int) (bool, error) {
	need := js.ranks() - free
	if need <= 0 {
		return false, nil
	}
	total := 0
	for _, r := range f.running {
		if r.spec.Priority < js.spec.Priority {
			total += f.reusable(r)
		}
	}
	if total < need {
		return false, nil
	}
	var victims []*jobState
	for _, r := range f.running {
		// Suspending a job that frees no reusable host would checkpoint
		// it without unblocking the head.
		if r.spec.Priority < js.spec.Priority && f.reusable(r) > 0 {
			victims = append(victims, r)
		}
	}
	slices.SortStableFunc(victims, func(a, b *jobState) int {
		return cmp.Or(cmp.Compare(a.spec.Priority, b.spec.Priority),
			cmp.Compare(b.PlacedAt, a.PlacedAt), strings.Compare(b.spec.ID, a.spec.ID))
	})
	n := 0
	for got := 0; got < need; n++ {
		got += f.reusable(victims[n])
	}
	for _, v := range victims[:n] {
		if err := f.preempt(v, t); err != nil {
			return false, err
		}
	}
	return f.tryPlace(js, t, -1)
}

// preempt suspends a running job through its workload's checkpoint path,
// releases its hosts and requeues it with the progress it made credited.
func (f *Farm) preempt(v *jobState, t time.Duration) error {
	f.settle(v, t)
	v.Preempts++
	if err := v.work.Suspend(); err != nil {
		return fmt.Errorf("farm: suspending %s: %w", v.spec.ID, err)
	}
	v.res.Release()
	v.res = nil
	f.running = slices.DeleteFunc(f.running, func(r *jobState) bool { return r == v })
	f.queue = append(f.queue, v)
	f.emit(JobPreempted{T: t, ID: v.spec.ID, Remaining: v.Remaining})
	return nil
}
