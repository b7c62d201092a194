// Package cluster models the paper's pool of 25 non-dedicated HP9000/700
// workstations: sixteen 715/50 models, six 720s and three 710s on a shared
// network, each with UNIX-style 1/5/15-minute load averages, an interactive
// user who may be active or idle, and background jobs competing for CPU.
//
// The model substitutes for hardware this reproduction does not have; it
// exposes exactly the observables the paper's programs read — "uptime"
// load averages and user idle time — so the free-host selection policy of
// section 4.1 and the migration trigger of section 5.1 run unchanged
// against it. Time is explicit (Advance), so tests and the performance
// simulator control it deterministically.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Model identifies a workstation model. Speed factors are the measured
// relative speeds of the paper's section-7 table (LB 2D row): 715/50 = 1.0,
// 710 = 0.84, 720 = 0.86, where 1.0 corresponds to 39,132 fluid nodes
// integrated per second.
type Model int

const (
	HP715 Model = iota
	HP710
	HP720
)

func (m Model) String() string {
	switch m {
	case HP715:
		return "HP9000/715-50"
	case HP710:
		return "HP9000/710"
	case HP720:
		return "HP9000/720"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// speedTable is the section-7 table of relative speeds: a row per method
// (lb2d, lb3d, fd2d, fd3d, as SpeedFactor switches), a column per Model.
var speedTable = [4][3]float64{
	{HP715: 1.0, HP710: 0.84, HP720: 0.86},
	{HP715: 0.51, HP710: 0.40, HP720: 0.42},
	{HP715: 1.24, HP710: 1.08, HP720: 1.17},
	{HP715: 1.0, HP710: 0.85, HP720: 0.94},
}

// SpeedFactor returns the model's relative speed for the given method and
// dimensionality, from the section-7 speed table. An unknown method reads
// the LB 2D row; an unknown model has speed 0.
func (m Model) SpeedFactor(method string) float64 {
	if m < 0 || int(m) >= len(speedTable[0]) {
		return 0
	}
	row := 0 // lb2d, and any unknown method
	switch method {
	case "lb3d":
		row = 1
	case "fd2d":
		row = 2
	case "fd3d":
		row = 3
	}
	return speedTable[row][m]
}

// BaseNodesPerSecond is the absolute speed corresponding to relative speed
// 1.0 in the section-7 table: 39,132 fluid nodes integrated per second.
const BaseNodesPerSecond = 39132.0

// Load-average time constants of the UNIX kernel.
var loadTaus = [3]time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute}

// Host is one virtual workstation.
type Host struct {
	Name  string
	Model Model

	// jobs is the number of full-time competing processes (not counting
	// a parallel subprocess, which runs at low priority and is invisible
	// to the load threshold decision in this model: "nice" keeps it out
	// of the regular users' way).
	jobs int

	// loads are the 1/5/15-minute exponentially averaged load values.
	loads [3]float64

	// userLoads are the same averages restricted to the regular users'
	// processes (jobs), excluding any parallel subprocess. A farm
	// scheduler reads these: it knows which subprocesses are its own, so
	// it can reuse a just-released host without waiting for the blended
	// uptime average to decay. The paper's single-job policies read only
	// the blended loads.
	userLoads [3]float64

	// idleFor is how long the interactive user has been idle.
	idleFor time.Duration

	// reclaimed marks the regular user as present via the event protocol
	// (Cluster.Reclaim / Cluster.UserGone), independent of the lagging
	// load averages.
	reclaimed bool

	// assigned is the rank of the parallel subprocess placed here, or -1.
	assigned int

	// owner identifies which job the subprocess belongs to ("" for the
	// single-job protocols of sections 4-5).
	owner string
}

// NewHost creates an idle host with no user activity.
func NewHost(name string, model Model) *Host {
	return &Host{Name: name, Model: model, idleFor: time.Hour, assigned: -1}
}

// Uptime returns the 1, 5 and 15-minute load averages, the observable the
// monitoring program reads via the UNIX command "uptime".
func (h *Host) Uptime() (l1, l5, l15 float64) {
	return h.loads[0], h.loads[1], h.loads[2]
}

// UserIdle reports whether the user has been idle for more than 20 minutes,
// the section-4.1 threshold separating idle-user from active-user hosts.
func (h *Host) UserIdle() bool { return h.idleFor >= 20*time.Minute }

// Jobs returns the number of competing full-time processes.
func (h *Host) Jobs() int { return h.jobs }

// StartJob adds a competing full-time process (a regular user's
// computation).
func (h *Host) StartJob() { h.jobs++ }

// StopJob removes one competing process.
func (h *Host) StopJob() {
	if h.jobs > 0 {
		h.jobs--
	}
}

// TouchUser marks interactive activity, resetting the idle clock.
func (h *Host) TouchUser() { h.idleFor = 0 }

// Assigned returns the rank of the parallel subprocess on this host, or -1.
func (h *Host) Assigned() int { return h.assigned }

// AssignTo places a parallel subprocess owned by a named job on the host.
// The owner lets a multi-job scheduler tell its jobs' subprocesses apart.
func (h *Host) AssignTo(owner string, rank int) {
	h.assigned = rank
	h.owner = owner
}

// Owner returns the job the subprocess belongs to ("" when unassigned or
// assigned by the single-job protocol).
func (h *Host) Owner() string { return h.owner }

// Unassign removes the parallel subprocess.
func (h *Host) Unassign() {
	h.assigned = -1
	h.owner = ""
}

// UserLoad15 returns the fifteen-minute load attributable to regular
// users' processes alone, the observable a farm scheduler uses for
// capacity decisions (see the userLoads field).
func (h *Host) UserLoad15() float64 { return h.userLoads[2] }

// advance evolves the load averages toward the current job count over dt
// (decay[i] is the share of the gap that closes over dt at loadTaus[i];
// Cluster.Advance computes it once for the pool) and accumulates user idle
// time. A parallel subprocess contributes a full unit of load (it is a
// full-time process, merely niced), so the observable load includes it.
func (h *Host) advance(dt time.Duration, decay [3]float64) {
	target := float64(h.jobs)
	if h.assigned >= 0 {
		target++
	}
	user := float64(h.jobs)
	for i, a := range decay {
		h.loads[i] += (target - h.loads[i]) * a
		h.userLoads[i] += (user - h.userLoads[i]) * a
	}
	h.idleFor += dt
}

// Speed returns the host's effective fluid-node integration speed
// (nodes per second) for a numerical method, degraded by competing jobs:
// with k full-time competitors, the niced subprocess receives roughly
// 1/(k+1) of the CPU.
func (h *Host) Speed(method string) float64 {
	return BaseNodesPerSecond * h.Model.SpeedFactor(method) / float64(h.jobs+1)
}

// Cluster is a pool of hosts.
type Cluster struct {
	Hosts []*Host
	now   time.Duration

	// events is the pending host event stream (see events.go).
	events       []HostEvent
	idle, active []*Host // reservable's scratch (see reserve.go)
	order        []*Host // take's scratch (see reserve.go)
}

// NewPaperCluster builds the paper's pool: sixteen 715/50s, six 720s and
// three 710s.
func NewPaperCluster() *Cluster {
	c := &Cluster{}
	for i := 0; i < 16; i++ {
		c.Hosts = append(c.Hosts, NewHost(fmt.Sprintf("hp715-%02d", i), HP715))
	}
	for i := 0; i < 6; i++ {
		c.Hosts = append(c.Hosts, NewHost(fmt.Sprintf("hp720-%02d", i), HP720))
	}
	for i := 0; i < 3; i++ {
		c.Hosts = append(c.Hosts, NewHost(fmt.Sprintf("hp710-%02d", i), HP710))
	}
	return c
}

// Now returns the cluster's simulated time.
func (c *Cluster) Now() time.Duration { return c.now }

// Advance moves simulated time forward, evolving every host.
func (c *Cluster) Advance(dt time.Duration) {
	c.now += dt
	var decay [3]float64
	for i, tau := range loadTaus {
		decay[i] = 1 - math.Exp(-dt.Seconds()/tau.Seconds())
	}
	for _, h := range c.Hosts {
		h.advance(dt, decay)
	}
}

// ByName returns the named host or nil.
func (c *Cluster) ByName(name string) *Host {
	for _, h := range c.Hosts {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// SelectionPolicy holds the free-host selection thresholds of section 4.1.
type SelectionPolicy struct {
	// MaxLoad15 is the fifteen-minute load threshold below which a host is
	// selectable ("the load must be less than 0.6 where 1.0 means a
	// full-time process is running").
	MaxLoad15 float64
	// MinIdle is the user idle time that moves a host into the preferred
	// idle-user group.
	MinIdle time.Duration
}

// DefaultPolicy returns the paper's thresholds.
func DefaultPolicy() SelectionPolicy {
	return SelectionPolicy{MaxLoad15: 0.6, MinIdle: 20 * time.Minute}
}

// SelectFree returns up to n free hosts following the section-4.1 strategy:
// idle-user workstations with low load first, then active-user
// workstations, preferring 715 models within each group (the paper: "our
// strategy is to choose 715 models first before choosing the slightly
// slower 710 and 720 models"). Hosts already running a parallel subprocess
// are never selected.
func (c *Cluster) SelectFree(n int, pol SelectionPolicy) []*Host {
	var idle, active []*Host
	for _, h := range c.Hosts {
		if h.assigned >= 0 || h.loads[2] >= pol.MaxLoad15 {
			continue
		}
		if h.idleFor >= pol.MinIdle {
			idle = append(idle, h)
		} else {
			active = append(active, h)
		}
	}
	byPreference := func(a, b *Host) int {
		return cmp.Or(cmp.Compare(modelPreference(a.Model), modelPreference(b.Model)), strings.Compare(a.Name, b.Name))
	}
	slices.SortStableFunc(idle, byPreference)
	slices.SortStableFunc(active, byPreference)
	out := append(idle, active...)
	return out[:min(n, len(out))]
}

// modelPreference ranks 715 first (0), then 720 (1), then 710 and any
// unknown model (2): the paper treats 710 as the slowest.
func modelPreference(m Model) int {
	if m >= 0 && int(m) < len(preferences) {
		return preferences[m]
	}
	return 2
}

var preferences = [...]int{HP715: 0, HP720: 1, HP710: 2}

// MigrationPolicy holds the section-5.1 migration trigger.
type MigrationPolicy struct {
	// MaxLoad5 is the five-minute-average load beyond which the host is
	// considered busy with a second full-time process (typically 1.5).
	MaxLoad5 float64
}

// DefaultMigrationPolicy returns the paper's threshold of 1.5.
func DefaultMigrationPolicy() MigrationPolicy { return MigrationPolicy{MaxLoad5: 1.5} }

// NeedsMigration returns the hosts whose parallel subprocess should migrate:
// assigned hosts whose five-minute load exceeds the threshold (a second
// full-time process is running alongside the subprocess), or whose regular
// user announced their return through the Reclaim event protocol — the
// event path reacts immediately instead of waiting minutes for the
// five-minute average to climb.
func (c *Cluster) NeedsMigration(pol MigrationPolicy) []*Host {
	var out []*Host
	for _, h := range c.Hosts {
		if h.assigned < 0 {
			continue
		}
		_, l5, _ := h.Uptime()
		if l5 > pol.MaxLoad5 || h.reclaimed {
			out = append(out, h)
		}
	}
	return out
}
