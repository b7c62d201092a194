// Package autoscale drives rank counts of running malleable jobs from a
// supply/demand control loop. The paper's farm scavenges idle cycles of
// non-dedicated workstations, so both sides of the market fluctuate:
// supply (reservable hosts) swings with user activity, demand (queued
// jobs) with arrivals. A fixed rank count chosen at submission is wrong
// in both directions — idle hosts go to waste while a job crawls on its
// submitted width, and a grown job squats on capacity a queued job
// needs. The control loop closes that gap over the farm's malleability
// primitive (AutoscaleControl.Resize): analyze a per-tick Sample of the farm, decide
// grow/shrink/hold per job with the SupplyDemand policy, and actuate
// through the AutoscaleControl handle — all synchronously on the
// scheduling goroutine at exact virtual times, so an autoscaled farm
// replays deterministically and its simulations stay bit-identical.
//
// The three stages are separable: SupplyDemand.Decide is pure (Sample
// in, Decisions out — unit-testable on handmade samples), Engine adds
// the temporal smoothing every real control loop needs (hysteresis: a
// decision must persist for Confirm consecutive ticks; cooldown: a
// just-resized job is left alone for a while), and the farm's
// WithAutoscaler option is the clock. The zero Engine runs
// SupplyDemand's defaults and actuates at once. Wire it up with:
//
//	eng := &autoscale.Engine{Confirm: 2, Cooldown: 2 * time.Minute}
//	f, err := farm.New(pool, eng.Option(30*time.Second))
package autoscale

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/farm"
)

// Action is what the policy wants done to one job's rank count.
type Action int

const (
	// Hold leaves the job's rank count alone (and resets any pending
	// hysteresis streak for it).
	Hold Action = iota
	// Grow adds ranks to a running job.
	Grow
	// Shrink removes ranks from a running job (never below its
	// submitted width).
	Shrink
)

func (a Action) String() string {
	switch a {
	case Hold:
		return "hold"
	case Grow:
		return "grow"
	case Shrink:
		return "shrink"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Decision is one job's proposed rank-count change: From is the current
// width, To the target, Reason the operator-facing explanation recorded
// on the event stream.
type Decision struct {
	Job    string
	Action Action
	From   int
	To     int
	Reason string
}

// SupplyDemand is the market-clearing policy. It proposes per-job
// decisions from one control-tick sample and is pure and deterministic:
// same sample, same decisions, in a stable order — the engine runs it
// on the scheduling goroutine and the farm's bit-reproducibility
// depends on it.
//
// When no demand waits (the queue is empty) and more than Spare hosts
// are free, it grows the running job farthest from completion — the one
// the extra ranks help longest — by at most Chunk ranks, bounded by the
// free hosts and by MaxFactor times the job's submitted width.
//
// When demand waits and the free hosts cannot seat the widest queued
// job, it shrinks previously grown jobs — never below their submitted
// width, most-nearly-done first, so the give-back disturbs the least
// remaining work — by at most Chunk ranks each until the shortfall is
// covered.
//
// The zero value is usable: Spare 2, Chunk 2, MaxFactor 2.
type SupplyDemand struct {
	// Spare is the free-host headroom never lent to growth, kept for
	// arrivals and reclaim storms. <= 0 means 2.
	Spare int
	// Chunk caps how many ranks one decision adds or removes. <= 0
	// means 2.
	Chunk int
	// MaxFactor caps a job's grown width at MaxFactor times its
	// submitted ranks. <= 0 means 2.
	MaxFactor float64
}

func (p SupplyDemand) spare() int { return defInt(p.Spare, 2) }
func (p SupplyDemand) chunk() int { return defInt(p.Chunk, 2) }
func (p SupplyDemand) maxFactor() float64 {
	if p.MaxFactor <= 0 {
		return 2
	}
	return p.MaxFactor
}

func defInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// Decide proposes the tick's decisions.
func (p SupplyDemand) Decide(s farm.Sample) []Decision {
	if s.QueueDepth == 0 {
		return p.growIntoIdle(s)
	}
	return p.shrinkForDemand(s)
}

// growIntoIdle lends idle supply to the running job with the most work
// left.
func (p SupplyDemand) growIntoIdle(s farm.Sample) []Decision {
	free := s.FreeHosts - p.spare()
	if free <= 0 || len(s.Running) == 0 {
		return nil
	}
	cand := s.Running[0]
	for _, j := range s.Running[1:] {
		if j.Progress < cand.Progress || (j.Progress == cand.Progress && j.ID < cand.ID) {
			cand = j
		}
	}
	lim := int(p.maxFactor() * float64(cand.SpecRanks))
	if lim > s.TotalHosts {
		lim = s.TotalHosts
	}
	to := cand.Ranks + p.chunk()
	if to > cand.Ranks+free {
		to = cand.Ranks + free
	}
	if to > lim {
		to = lim
	}
	if to <= cand.Ranks {
		return nil
	}
	return []Decision{{
		Job: cand.ID, Action: Grow, From: cand.Ranks, To: to,
		Reason: fmt.Sprintf("queue empty, %d hosts idle beyond the %d-host spare", free, p.spare()),
	}}
}

// shrinkForDemand reclaims lent ranks when the widest queued job cannot
// be seated.
func (p SupplyDemand) shrinkForDemand(s farm.Sample) []Decision {
	widest := 0
	for _, j := range s.Queued {
		if j.Ranks > widest {
			widest = j.Ranks
		}
	}
	need := widest - s.FreeHosts
	if need <= 0 {
		return nil
	}
	grown := make([]farm.JobSample, 0, len(s.Running))
	for _, j := range s.Running {
		if j.Ranks > j.SpecRanks {
			grown = append(grown, j)
		}
	}
	slices.SortStableFunc(grown, func(a, b farm.JobSample) int {
		return cmp.Or(cmp.Compare(b.Progress, a.Progress), strings.Compare(a.ID, b.ID))
	})
	var decs []Decision
	freed := 0
	for _, g := range grown {
		if freed >= need {
			break
		}
		to := g.Ranks - p.chunk()
		if to < g.SpecRanks {
			to = g.SpecRanks
		}
		if to >= g.Ranks {
			continue
		}
		decs = append(decs, Decision{
			Job: g.ID, Action: Shrink, From: g.Ranks, To: to,
			Reason: fmt.Sprintf("queued demand is %d hosts short", need),
		})
		freed += g.Ranks - to
	}
	return decs
}

// streak tracks one job's consecutive identical proposals.
type streak struct {
	action Action
	n      int
}

// Engine turns the pure policy into the farm's control loop, adding the
// temporal smoothing that keeps a noisy market from thrashing jobs
// through the (cheap but not free) suspend/re-split/resume cycle:
// hysteresis — a non-hold proposal must persist for Confirm consecutive
// ticks before it actuates — and a per-job cooldown after each committed
// resize. Every suppressed proposal is still recorded on the event
// stream as a hold decision with the pending action in its reason, so
// traces show the controller deliberating, not just acting.
//
// An Engine is stateful (streaks and cooldown clocks) but all its state
// is rebuilt from the tick stream, so re-attaching a fresh Engine to a
// restored farm reproduces the original run's decisions as long as the
// tick grid matches. Not safe for concurrent use; the farm invokes Tick
// on the scheduling goroutine only.
type Engine struct {
	// Policy proposes the decisions; the zero value runs its defaults.
	Policy SupplyDemand
	// Confirm is how many consecutive ticks must propose the same action
	// for a job before the engine actuates it. < 2 actuates immediately.
	Confirm int
	// Cooldown is the minimum virtual time between committed resizes of
	// one job. Zero disables it.
	Cooldown time.Duration

	streaks map[string]streak
	last    map[string]time.Duration
}

// Option wires the engine into a farm: pass the result to farm.New (or
// Restore, re-attaching the controller exactly as originally
// configured).
func (e *Engine) Option(every time.Duration) farm.Option {
	return farm.WithAutoscaler(every, e.Tick)
}

// Tick runs one control cycle: sample, decide, smooth, actuate. It is
// the function WithAutoscaler invokes; call it directly only in tests.
func (e *Engine) Tick(t time.Duration, ctl farm.AutoscaleControl) {
	if e.streaks == nil {
		e.streaks = make(map[string]streak)
		e.last = make(map[string]time.Duration)
	}
	decs := e.Policy.Decide(ctl.Sample())
	proposed := make(map[string]bool, len(decs))
	confirm := e.Confirm
	if confirm < 2 {
		confirm = 1
	}
	for _, d := range decs {
		if d.Action == Hold {
			delete(e.streaks, d.Job)
			continue
		}
		proposed[d.Job] = true
		st := e.streaks[d.Job]
		if st.action == d.Action {
			st.n++
		} else {
			st = streak{action: d.Action, n: 1}
		}
		e.streaks[d.Job] = st
		if st.n < confirm {
			ctl.Decide(d.Job, Hold.String(), d.From, d.To,
				fmt.Sprintf("%s pending confirmation %d/%d: %s", d.Action, st.n, confirm, d.Reason))
			continue
		}
		if e.Cooldown > 0 {
			if lastAt, ok := e.last[d.Job]; ok && t-lastAt < e.Cooldown {
				ctl.Decide(d.Job, Hold.String(), d.From, d.To,
					fmt.Sprintf("%s cooling down until %v: %s", d.Action, lastAt+e.Cooldown, d.Reason))
				continue
			}
		}
		ctl.Decide(d.Job, d.Action.String(), d.From, d.To, d.Reason)
		if err := ctl.Resize(d.Job, d.To); err != nil {
			// The farm moved between sample and actuation (a completion, a
			// reclaim, a capacity change): drop the streak and let the next
			// tick re-derive the decision from fresh state.
			delete(e.streaks, d.Job)
			continue
		}
		e.last[d.Job] = t
		delete(e.streaks, d.Job)
	}
	// A job the policy stopped proposing for loses its streak: the
	// hysteresis counts consecutive ticks, not lifetime occurrences.
	//detlint:allow maporder -- the body only deletes from the map it ranges over
	for id := range e.streaks {
		if !proposed[id] {
			delete(e.streaks, id)
		}
	}
}
