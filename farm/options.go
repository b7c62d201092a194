package farm

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// Option configures a farm at construction (New) or restoration
// (Restore). Options replace the old poke-the-scheduler-struct wiring;
// unspecified knobs keep the documented defaults.
type Option func(*config)

type config struct {
	policy      Policy
	policySet   bool
	backfill    BackfillMode
	backfillSet bool
	seed        int64
	seedSet     bool

	timer StepTimer

	ckptDir   string
	ckptEvery time.Duration
	ckptGap   time.Duration

	scenario      func(t time.Duration, c *cluster.Cluster)
	scenarioEvery time.Duration

	autoscale      func(t time.Duration, ctl AutoscaleControl)
	autoscaleEvery time.Duration
}

func newConfig(opts []Option) config {
	cfg := config{policy: FIFO, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// validate rejects option combinations the event loop would otherwise
// accept and silently ignore. Every failure wraps ErrInvalidSpec.
func (cfg config) validate() error {
	if cfg.scenario != nil && cfg.scenarioEvery <= 0 {
		return fmt.Errorf("farm: %w: WithScenario interval %v is not positive; the callback would never fire",
			ErrInvalidSpec, cfg.scenarioEvery)
	}
	if cfg.scenario == nil && cfg.scenarioEvery > 0 {
		return fmt.Errorf("farm: %w: WithScenario interval %v with a nil callback",
			ErrInvalidSpec, cfg.scenarioEvery)
	}
	if cfg.autoscale != nil && cfg.autoscaleEvery <= 0 {
		return fmt.Errorf("farm: %w: WithAutoscaler interval %v is not positive; the control loop would never tick",
			ErrInvalidSpec, cfg.autoscaleEvery)
	}
	if cfg.autoscale == nil && cfg.autoscaleEvery > 0 {
		return fmt.Errorf("farm: %w: WithAutoscaler interval %v with a nil callback",
			ErrInvalidSpec, cfg.autoscaleEvery)
	}
	if cfg.ckptEvery < 0 {
		return fmt.Errorf("farm: %w: WithCheckpoint interval %v is negative",
			ErrInvalidSpec, cfg.ckptEvery)
	}
	if cfg.ckptEvery > 0 && cfg.ckptDir == "" {
		return fmt.Errorf("farm: %w: WithCheckpoint interval %v without a directory",
			ErrInvalidSpec, cfg.ckptEvery)
	}
	return nil
}

// apply transfers the configured knobs onto the scheduler. Policy and
// seed are constructor arguments (New) or manifest state (Restore), so
// they are not re-applied here.
func (cfg config) apply(s *sched.Scheduler) {
	if cfg.backfillSet {
		s.Backfill = cfg.backfill
	}
	if cfg.timer != nil {
		s.Timer = cfg.timer
	}
	s.CheckpointDir = cfg.ckptDir
	s.CheckpointEvery = cfg.ckptEvery
	s.CheckpointGap = cfg.ckptGap
	s.Scenario = cfg.scenario
	s.ScenarioEvery = cfg.scenarioEvery
	s.Autoscale = cfg.autoscale
	s.AutoscaleEvery = cfg.autoscaleEvery
}

// WithPolicy selects the queueing discipline: FIFO (the default),
// Priority (preempting), or WeightedFair (per-tenant shares). Rejected
// by Restore — a checkpoint manifest carries its own policy.
func WithPolicy(p Policy) Option {
	return func(cfg *config) { cfg.policy = p; cfg.policySet = true }
}

// WithBackfill selects how jobs behind a blocked queue head may use the
// gaps its ranks cannot fill: BackfillEASY (the default), aggressive,
// or none. Rejected by Restore.
func WithBackfill(m BackfillMode) Option {
	return func(cfg *config) { cfg.backfill = m; cfg.backfillSet = true }
}

// WithTimer prices one integration step per placement or migration. The
// default is the compute-only ComputeTimer; PerfTimer adds the modelled
// network. A price that is not finite and positive fails Run. Not
// persisted in checkpoints — re-pass it to Restore.
func WithTimer(t StepTimer) Option {
	return func(cfg *config) { cfg.timer = t }
}

// WithSeed seeds the randomized placement scan (default 1). A fixed
// seed makes a farm's trace — and its event stream — deterministic.
// Rejected by Restore — the manifest carries the mid-run RNG state.
func WithSeed(seed int64) Option {
	return func(cfg *config) { cfg.seed = seed; cfg.seedSet = true }
}

// WithCheckpoint makes the farm durable in dir: the event loop persists
// the whole farm at every multiple of every in virtual time (while the
// farm has work), so a crashed coordinator loses at most one interval,
// and Run's cancellation path saves a final checkpoint before
// interrupting. gap paces the per-rank dump writes (the section-5.2
// etiquette for a shared file server); zero writes back to back. An
// every of zero arms the directory for cancellation saves only. Not
// persisted in checkpoints — re-pass it to Restore.
func WithCheckpoint(dir string, every, gap time.Duration) Option {
	return func(cfg *config) { cfg.ckptDir = dir; cfg.ckptEvery = every; cfg.ckptGap = gap }
}

// WithScenario invokes fn on the scheduling goroutine at every multiple
// of every of virtual time while the farm has work. Experiments script
// user activity through it (cluster.Reclaim / cluster.UserGone storms)
// and may Submit new jobs or call Farm.Checkpoint / Farm.Interrupt;
// farm/workload compiles declarative scenario scripts onto this hook.
// The interval must be positive when fn is set: New and Restore reject
// every <= 0 with ErrInvalidSpec instead of arming a callback that
// never fires. Not persisted in checkpoints — re-attach the same
// stateless function to a restored farm or its virtual-time grid
// changes.
func WithScenario(every time.Duration, fn func(t time.Duration, c *cluster.Cluster)) Option {
	return func(cfg *config) { cfg.scenarioEvery = every; cfg.scenario = fn }
}

// WithAutoscaler attaches a resize control loop: fn is invoked on the
// scheduling goroutine at every multiple of every of virtual time while
// the farm has work, right after the scenario tick of the same instant,
// so the controller observes the scripted user activity it must react
// to. The control handle samples queue depth, pool utilization and
// per-job progress, and actuates grow/shrink decisions synchronously —
// farm/autoscale provides a ready-made supply/demand policy with
// hysteresis and cooldown to plug in here. The interval must be
// positive when fn is set: New and Restore reject every <= 0 with
// ErrInvalidSpec. Not persisted in checkpoints — re-attach the same
// controller to a restored farm (like WithScenario) or the virtual-time
// grid, and with it the bit-identity guarantee, changes.
func WithAutoscaler(every time.Duration, fn func(t time.Duration, ctl AutoscaleControl)) Option {
	return func(cfg *config) { cfg.autoscaleEvery = every; cfg.autoscale = fn }
}
