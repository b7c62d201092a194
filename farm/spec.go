package farm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ckpt"
)

// Sentinel errors returned (wrapped, with job context) by Submit;
// callers branch on them with errors.Is.
var (
	// ErrClosed rejects a submission after Drain, once Run has begun,
	// or on a restored farm.
	ErrClosed = errors.New("farm is closed to new submissions")
	// ErrDuplicateID rejects a job ID the farm has already accepted.
	ErrDuplicateID = errors.New("duplicate job ID")
	// ErrNoCapacity rejects a job that needs more ranks than the pool
	// has hosts: no scheduling round could ever place it, so it is
	// refused at submission instead of stalling the farm later.
	ErrNoCapacity = errors.New("job needs more ranks than the pool has hosts")
	// ErrInvalidSpec wraps every JobSpec validation failure.
	ErrInvalidSpec = errors.New("invalid job spec")
)

// Policy selects the queueing discipline.
type Policy int

const (
	// FIFO runs jobs in submission order (ties broken by ID).
	FIFO Policy = iota
	// Priority runs the highest-priority job first and preempts running
	// lower-priority jobs when the head of the queue cannot fit.
	Priority
	// WeightedFair picks the queued job with the least virtual service
	// time per unit weight, a stride-scheduling share of the farm.
	WeightedFair
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Priority:
		return "priority"
	case WeightedFair:
		return "fair"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps a policy name to its Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo":
		return FIFO, nil
	case "priority":
		return Priority, nil
	case "fair":
		return WeightedFair, nil
	}
	return 0, fmt.Errorf("farm: unknown policy %q (fifo, priority, fair)", s)
}

// BackfillMode selects how jobs behind a blocked queue head may use the
// gaps its ranks cannot fill.
type BackfillMode int

const (
	// BackfillNone enforces strict head-of-line order: nothing behind a
	// blocked head runs (except a Priority preemption of the head
	// itself).
	BackfillNone BackfillMode = iota
	// BackfillAggressive places any queued job that fits right now. With
	// no reservation for the head, a steady stream of small jobs can
	// delay a wide head indefinitely — the starvation hole EASY closes.
	BackfillAggressive
	// BackfillEASY grants the blocked head a reservation at its
	// projected start (computed from the running jobs' virtual finish
	// times) and backfills only jobs whose own projected finish lands
	// before it, bounding the head's extra wait. The scheduler default.
	BackfillEASY
)

func (m BackfillMode) String() string {
	switch m {
	case BackfillNone:
		return "none"
	case BackfillAggressive:
		return "aggressive"
	case BackfillEASY:
		return "easy"
	}
	return fmt.Sprintf("BackfillMode(%d)", int(m))
}

// ParseBackfill maps a backfill mode name to its BackfillMode.
func ParseBackfill(s string) (BackfillMode, error) {
	switch s {
	case "none":
		return BackfillNone, nil
	case "aggressive":
		return BackfillAggressive, nil
	case "easy":
		return BackfillEASY, nil
	}
	return 0, fmt.Errorf("farm: unknown backfill mode %q (none, aggressive, easy)", s)
}

// methodDims maps the section-7 method names to their dimensionality.
var methodDims = map[string]int{
	"lb2d": 2, "fd2d": 2, "lb3d": 3, "fd3d": 3,
}

// JobSpec describes one job of the farm: the decomposed simulation it
// stands for (method, decomposition, subregion side), how long it runs,
// and how the queue should treat it. Specs are the scheduler's model of
// the work — a real core.Job attached through CoreWorkload computes
// whatever its own config says, while the spec drives the virtual-time
// accounting.
type JobSpec struct {
	ID     string
	Method string // lb2d, fd2d, lb3d or fd3d (the speed-table names)

	// JX, JY, JZ is the decomposition; JZ = 0 means 2D. Ranks() hosts
	// are needed, one per subregion, as in the paper.
	JX, JY, JZ int
	// Side is the subregion side length (square/cubic subregions, the
	// paper's scaling setup), fixing the per-rank workload.
	Side int
	// Steps is the number of integration steps.
	Steps int

	// GX, GY, GZ pin the global grid explicitly; zero derives it from
	// the lattice (Side*JX x Side*JY [x Side*JZ]), which every job
	// submitted before malleability used. The scheduler pins the grid
	// when it resizes a job: the lattice changes but the problem does
	// not, so pricing and shape validation must keep measuring the
	// original grid. User submissions normally leave these zero.
	GX, GY, GZ int

	// Priority orders the Priority policy (higher first); jobs with
	// strictly higher priority may preempt running lower-priority jobs.
	Priority int
	// User names the tenant the job belongs to for WeightedFair
	// accounting; an empty user makes the job its own tenant.
	User string
	// Weight is the WeightedFair share of the job's tenant (<= 0 means
	// 1): the scheduler favors the tenant with the least virtual service
	// time per unit weight. Jobs of one tenant should agree on it.
	Weight float64
	// Submit is the arrival time, relative to the farm's start.
	Submit time.Duration
}

// Is3D reports whether the spec decomposes a 3D problem.
func (s JobSpec) Is3D() bool { return s.JZ > 0 }

// Grid returns the spec's global grid extents: the pinned GX/GY/GZ when
// set, Side*JX x Side*JY [x Side*JZ] otherwise. gz is zero for 2D specs.
func (s JobSpec) Grid() (gx, gy, gz int) {
	gx, gy, gz = s.GX, s.GY, s.GZ
	if gx == 0 {
		gx = s.Side * s.JX
	}
	if gy == 0 {
		gy = s.Side * s.JY
	}
	if !s.Is3D() {
		return gx, gy, 0
	}
	if gz == 0 {
		gz = s.Side * s.JZ
	}
	return gx, gy, gz
}

// Ranks returns the number of hosts the job needs.
func (s JobSpec) Ranks() int { return s.JX * s.JY * max(s.JZ, 1) }

// Validate checks the spec. Every failure wraps ErrInvalidSpec, so
// callers distinguish a malformed spec from capacity or lifecycle
// rejections with errors.Is.
func (s JobSpec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("farm: %w: job needs an ID", ErrInvalidSpec)
	}
	// IDs name checkpoint subdirectories; reject at submission what
	// Checkpoint would otherwise choke on mid-run.
	if err := ckpt.CheckJobID(s.ID); err != nil {
		return fmt.Errorf("farm: %w: job %s: %w", ErrInvalidSpec, s.ID, err)
	}
	dim, ok := methodDims[s.Method]
	if !ok {
		return fmt.Errorf("farm: %w: job %s: unknown method %q", ErrInvalidSpec, s.ID, s.Method)
	}
	if dim == 3 && s.JZ < 1 {
		return fmt.Errorf("farm: %w: job %s: 3D method needs JZ >= 1", ErrInvalidSpec, s.ID)
	}
	if dim == 2 && s.JZ != 0 {
		return fmt.Errorf("farm: %w: job %s: 2D method with JZ = %d", ErrInvalidSpec, s.ID, s.JZ)
	}
	if s.JX < 1 || s.JY < 1 {
		return fmt.Errorf("farm: %w: job %s: decomposition %dx%dx%d", ErrInvalidSpec, s.ID, s.JX, s.JY, s.JZ)
	}
	if s.Side < 1 {
		return fmt.Errorf("farm: %w: job %s: subregion side %d", ErrInvalidSpec, s.ID, s.Side)
	}
	if s.GX < 0 || s.GY < 0 || s.GZ < 0 {
		return fmt.Errorf("farm: %w: job %s: negative grid %dx%dx%d", ErrInvalidSpec, s.ID, s.GX, s.GY, s.GZ)
	}
	if s.GZ > 0 && dim == 2 {
		return fmt.Errorf("farm: %w: job %s: 2D method with GZ = %d", ErrInvalidSpec, s.ID, s.GZ)
	}
	if gx, gy, gz := s.Grid(); gx < s.JX || gy < s.JY || (s.Is3D() && gz < s.JZ) {
		return fmt.Errorf("farm: %w: job %s: grid %dx%dx%d cannot give every subregion of the %dx%dx%d lattice a node",
			ErrInvalidSpec, s.ID, gx, gy, gz, s.JX, s.JY, s.JZ)
	}
	if s.Steps < 1 {
		return fmt.Errorf("farm: %w: job %s: %d steps", ErrInvalidSpec, s.ID, s.Steps)
	}
	if s.Submit < 0 {
		return fmt.Errorf("farm: %w: job %s: negative submit time", ErrInvalidSpec, s.ID)
	}
	return nil
}
