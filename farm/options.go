package farm

import (
	"fmt"
	"time"

	"repro/internal/cluster"
)

// Option configures a farm at construction (New) or restoration
// (Restore); unspecified knobs keep the documented defaults.
type Option func(*Farm)

// validate rejects knob combinations the event loop would otherwise
// accept and silently ignore. Every failure wraps ErrInvalidSpec.
func (f *Farm) validate() error {
	if f.scenario != nil && f.scenarioEvery <= 0 {
		return fmt.Errorf("farm: %w: WithScenario interval %v is not positive; the callback would never fire",
			ErrInvalidSpec, f.scenarioEvery)
	}
	if f.scenario == nil && f.scenarioEvery > 0 {
		return fmt.Errorf("farm: %w: WithScenario interval %v with a nil callback",
			ErrInvalidSpec, f.scenarioEvery)
	}
	if f.autoscale != nil && f.autoscaleEvery <= 0 {
		return fmt.Errorf("farm: %w: WithAutoscaler interval %v is not positive; the control loop would never tick",
			ErrInvalidSpec, f.autoscaleEvery)
	}
	if f.autoscale == nil && f.autoscaleEvery > 0 {
		return fmt.Errorf("farm: %w: WithAutoscaler interval %v with a nil callback",
			ErrInvalidSpec, f.autoscaleEvery)
	}
	if f.ckptEvery < 0 {
		return fmt.Errorf("farm: %w: WithCheckpoint interval %v is negative",
			ErrInvalidSpec, f.ckptEvery)
	}
	if f.ckptEvery > 0 && f.ckptDir == "" {
		return fmt.Errorf("farm: %w: WithCheckpoint interval %v without a directory",
			ErrInvalidSpec, f.ckptEvery)
	}
	return nil
}

// WithPolicy selects the queueing discipline: FIFO (the default),
// Priority (preempting), or WeightedFair (per-tenant shares). Rejected
// by Restore — a checkpoint manifest carries its own policy.
func WithPolicy(p Policy) Option {
	return func(f *Farm) { f.policy = p }
}

// WithBackfill selects how jobs behind a blocked queue head may use the
// gaps its ranks cannot fill. The default, BackfillEASY, makes a
// backfilled job finish before the head's projected start, so a steady
// stream of small jobs cannot starve a wide head; BackfillAggressive
// drops that reservation (the pre-EASY behaviour) and BackfillNone
// enforces strict head-of-line order. Rejected by Restore.
func WithBackfill(m BackfillMode) Option {
	return func(f *Farm) { f.backfill = m }
}

// WithTimer prices one integration step per placement or migration. The
// default (also kept for a nil t) is the compute-only ComputeTimer;
// PerfTimer adds the modelled network. A price that is not finite and
// positive fails Run. Not persisted in checkpoints — re-pass it to
// Restore.
func WithTimer(t StepTimer) Option {
	return func(f *Farm) {
		if t != nil {
			f.timer = t
		}
	}
}

// WithSeed seeds the randomized placement scan (default 1). A fixed
// seed makes a farm's trace — and its event stream — deterministic.
// Rejected by Restore — the manifest carries the mid-run RNG state.
func WithSeed(seed int64) Option {
	return func(f *Farm) { f.src = NewRNG(seed) }
}

// WithCheckpoint makes the farm durable in dir, the one way a farm
// saves: the event loop persists the whole farm at every multiple of
// every in virtual time (while the farm has work), so a crashed
// coordinator loses at most one interval, and once more when Run's
// context is canceled, before the loop returns. gap paces the per-rank
// dump writes (the section-5.2 etiquette for a shared file server); zero
// writes back to back. An every of zero saves on cancellation only. Not
// persisted in checkpoints — re-pass it to Restore.
func WithCheckpoint(dir string, every, gap time.Duration) Option {
	return func(f *Farm) { f.ckptDir, f.ckptEvery, f.ckptGap = dir, every, gap }
}

// WithScenario invokes fn on the scheduling goroutine at every multiple
// of every of virtual time while the farm has work, before completions
// are retired. Experiments script user activity through it
// (cluster.Reclaim / cluster.UserGone storms), and a crash experiment
// cancels Run's context from it, which saves into the WithCheckpoint
// directory at that exact virtual time (a Submit fails: Run has closed
// the farm); farm/workload compiles declarative scenario scripts onto
// this hook.
// The interval must be positive when fn is set: New and Restore reject
// every <= 0 with ErrInvalidSpec instead of arming a callback that
// never fires. Not persisted in checkpoints — re-attach the same
// stateless function to a restored farm or its virtual-time grid
// changes.
func WithScenario(every time.Duration, fn func(t time.Duration, c *cluster.Cluster)) Option {
	return func(f *Farm) { f.scenarioEvery, f.scenario = every, fn }
}

// WithAutoscaler attaches a resize control loop: fn is invoked on the
// scheduling goroutine at every multiple of every of virtual time while
// the farm has work, right after the scenario tick of the same instant,
// so the controller observes the scripted user activity it must react
// to. The control handle samples queue depth, pool utilization and
// per-job progress, and actuates grow/shrink decisions synchronously
// (AutoscaleControl.Resize, the farm's one way to resize a job) —
// farm/autoscale provides a ready-made supply/demand policy with
// hysteresis and cooldown to plug in here; this hook is only its
// deterministic clock. The interval must be positive when fn is set:
// New and Restore reject every <= 0 with ErrInvalidSpec. Not persisted
// in checkpoints — re-attach the same controller to a restored farm
// (like WithScenario) or the virtual-time grid, and with it the
// bit-identity guarantee, changes.
func WithAutoscaler(every time.Duration, fn func(t time.Duration, ctl AutoscaleControl)) Option {
	return func(f *Farm) { f.autoscaleEvery, f.autoscale = every, fn }
}
