package workload

import (
	"fmt"
	"time"

	"repro/farm"
	"repro/internal/cluster"
)

// Scenario event kinds.
const (
	// ReclaimStorm: at every firing, regular users sit back down at
	// Hosts farm-reserved workstations (deterministic scan order), the
	// section-5.1 trigger — the farm must vacate them that round. Each
	// user leaves Dwell later.
	ReclaimStorm = "reclaim-storm"
	// OwnerReturn: a wave of owners returns to Hosts workstations,
	// farm-reserved or not — the whole pool shrinks (end-of-lunch, the
	// morning wave). Each owner leaves Dwell later.
	OwnerReturn = "owner-return"
	// HostChurn: Hosts idle, unreserved workstations see a burst of
	// user activity, resetting their idle clocks — they drop out of the
	// reservable set and drift back as the section-4.1 idle threshold
	// re-passes. Churn without displacement.
	HostChurn = "host-churn"
)

// Scenario is a declarative cluster-side script: user activity at exact
// virtual times, expressed as data so it can ride in a workload spec or
// a trace file. Compile turns it into the farm.WithScenario callback.
type Scenario struct {
	// Every is the tick grid the compiled callback runs on; every event
	// time must be a multiple of it.
	Every time.Duration
	// Events are the scripted activities.
	Events []Event
}

// Event is one scripted activity window. The event fires at At and,
// when Until extends the window, at every Every step up to and
// including Until. Each firing affects up to Hosts hosts (scanned in
// deterministic pool order); firings of reclaiming kinds are undone
// Dwell later (the user leaves), or never when Dwell is 0.
type Event struct {
	Kind  string
	At    time.Duration
	Until time.Duration // 0: fire once, at At
	Every time.Duration // required when Until > At
	Hosts int           // hosts per firing (<= 0 means 1)
	Dwell time.Duration // user stay; 0 = stays forever
}

// hosts returns the per-firing host count.
func (e Event) hosts() int {
	if e.Hosts <= 0 {
		return 1
	}
	return e.Hosts
}

// firesAt reports whether the event has a firing at virtual time t.
func (e Event) firesAt(t time.Duration) bool {
	if t < e.At {
		return false
	}
	if e.Until <= e.At {
		return t == e.At
	}
	return t <= e.Until && (t-e.At)%e.Every == 0
}

// Validate checks the scenario; failures wrap farm.ErrInvalidSpec.
func (s *Scenario) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("workload: %w: scenario: %s", farm.ErrInvalidSpec, fmt.Sprintf(format, args...))
	}
	if s.Every <= 0 {
		return bad("tick interval %v is not positive", s.Every)
	}
	for i, e := range s.Events {
		switch e.Kind {
		case ReclaimStorm, OwnerReturn, HostChurn:
		default:
			return bad("event %d: unknown kind %q", i, e.Kind)
		}
		if e.At < 0 {
			return bad("event %d: negative start %v", i, e.At)
		}
		if e.Dwell < 0 {
			return bad("event %d: negative dwell %v", i, e.Dwell)
		}
		if e.Until != 0 && e.Until < e.At {
			return bad("event %d: window end %v before start %v", i, e.Until, e.At)
		}
		if e.Until > e.At && e.Every <= 0 {
			return bad("event %d: window without a firing period", i)
		}
		for _, f := range []struct {
			name string
			d    time.Duration
		}{{"start", e.At}, {"end", e.Until}, {"period", e.Every}, {"dwell", e.Dwell}} {
			if f.d%s.Every != 0 {
				return bad("event %d: %s %v is not a multiple of the %v tick", i, f.name, f.d, s.Every)
			}
		}
	}
	return nil
}

// Compile turns the scenario into the farm.WithScenario pair. The
// compiled callback is a pure function of the virtual time and the
// observable cluster state — it keeps no state of its own — so the
// identical function can be re-attached to a farm restored from a
// checkpoint and take the same decisions the dead coordinator's copy
// would have.
func (s *Scenario) Compile() (every time.Duration, fn func(time.Duration, *farm.Cluster), err error) {
	if err := s.Validate(); err != nil {
		return 0, nil, err
	}
	events := append([]Event(nil), s.Events...)
	return s.Every, func(t time.Duration, c *farm.Cluster) {
		for _, e := range events {
			if e.firesAt(t) {
				e.onset(c)
			}
			// A firing's users leave Dwell after it fired.
			if e.Dwell > 0 && t >= e.Dwell && e.firesAt(t-e.Dwell) {
				e.release(c)
			}
		}
	}, nil
}

// onset applies one firing's user activity, scanning hosts in pool
// order so the effect is deterministic.
func (e Event) onset(c *cluster.Cluster) {
	n := e.hosts()
	for _, h := range c.Hosts {
		if n == 0 {
			return
		}
		switch e.Kind {
		case ReclaimStorm:
			if h.Assigned() >= 0 && !h.Reclaimed() {
				c.Reclaim(h)
				n--
			}
		case OwnerReturn:
			if !h.Reclaimed() {
				c.Reclaim(h)
				n--
			}
		case HostChurn:
			if h.Assigned() < 0 && !h.Reclaimed() && h.UserIdle() {
				h.TouchUser()
				n--
			}
		}
	}
}

// release undoes one firing Dwell later: the first still-present users
// pack up. Churn needs no release — the idle clocks it reset recover on
// their own.
func (e Event) release(c *cluster.Cluster) {
	if e.Kind == HostChurn {
		return
	}
	n := e.hosts()
	for _, h := range c.Hosts {
		if n == 0 {
			return
		}
		if h.Reclaimed() {
			c.UserGone(h)
			n--
		}
	}
}
