package cluster

import (
	"fmt"
	"time"
)

// HostState is the complete serializable state of one virtual
// workstation: everything Host.advance and the selection/migration
// policies read. A farm checkpoint embeds one per host so a restored
// coordinator sees the exact pool — load averages, idle clocks, reclaim
// flags and subprocess assignments — it crashed with.
type HostState struct {
	Name  string
	Model Model

	Jobs      int
	Loads     [3]float64
	UserLoads [3]float64
	IdleFor   time.Duration
	Reclaimed bool

	Assigned int
	Owner    string
}

// EventState is one pending host event, with the host identified by name
// so the record serializes. Owner is the reservation holder captured
// when the event was recorded, so a restored farm's event reporting
// matches the dead coordinator's.
type EventState struct {
	Kind  HostEventKind
	Host  string
	At    time.Duration
	Owner string
}

// Snapshot is the complete serializable state of a cluster: the virtual
// clock, every host, and the undrained host event stream.
type Snapshot struct {
	Now    time.Duration
	Hosts  []HostState
	Events []EventState
}

// Snapshot captures the cluster's current state. The copy is deep: later
// Advance calls or host mutations do not affect it.
func (c *Cluster) Snapshot() Snapshot {
	s := Snapshot{Now: c.now, Hosts: make([]HostState, len(c.Hosts))}
	for i, h := range c.Hosts {
		s.Hosts[i] = HostState{
			Name:      h.Name,
			Model:     h.Model,
			Jobs:      h.jobs,
			Loads:     h.loads,
			UserLoads: h.userLoads,
			IdleFor:   h.idleFor,
			Reclaimed: h.reclaimed,
			Assigned:  h.assigned,
			Owner:     h.owner,
		}
	}
	for _, ev := range c.events {
		s.Events = append(s.Events, EventState{Kind: ev.Kind, Host: ev.Host.Name, At: ev.At, Owner: ev.Owner})
	}
	return s
}

// RestoreSnapshot overwrites the cluster's state from a snapshot taken of
// an identically shaped pool: hosts are matched by name and must agree on
// model, no name may repeat, and no host may be missing from either side.
// The whole snapshot, its events included, is checked before any host is
// written, so a mismatch returns a descriptive error and leaves the
// cluster as it was.
func (c *Cluster) RestoreSnapshot(s Snapshot) error {
	if len(s.Hosts) != len(c.Hosts) {
		return fmt.Errorf("cluster: snapshot has %d hosts, pool has %d", len(s.Hosts), len(c.Hosts))
	}
	byName := make(map[string]*Host, len(c.Hosts))
	for _, h := range c.Hosts {
		byName[h.Name] = h
	}
	seen := make(map[string]bool, len(s.Hosts))
	for _, hs := range s.Hosts {
		h := byName[hs.Name]
		if h == nil {
			return fmt.Errorf("cluster: snapshot host %q not in pool", hs.Name)
		}
		if h.Model != hs.Model {
			return fmt.Errorf("cluster: snapshot host %q is a %v, pool has a %v", hs.Name, hs.Model, h.Model)
		}
		if seen[hs.Name] {
			return fmt.Errorf("cluster: snapshot host %q appears twice", hs.Name)
		}
		seen[hs.Name] = true
	}
	for _, ev := range s.Events {
		if byName[ev.Host] == nil {
			return fmt.Errorf("cluster: snapshot event for unknown host %q", ev.Host)
		}
	}
	for _, hs := range s.Hosts {
		h := byName[hs.Name]
		h.jobs = hs.Jobs
		h.loads = hs.Loads
		h.userLoads = hs.UserLoads
		h.idleFor = hs.IdleFor
		h.reclaimed = hs.Reclaimed
		h.assigned = hs.Assigned
		h.owner = hs.Owner
	}
	c.now = s.Now
	c.events = nil
	for _, ev := range s.Events {
		c.events = append(c.events, HostEvent{Kind: ev.Kind, Host: byName[ev.Host], At: ev.At, Owner: ev.Owner})
	}
	return nil
}
