package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Reservation is a capacity claim on the pool: a set of hosts set aside
// for one job of a multi-job farm, where Hosts[i] serves the job's rank i.
// Reserving marks the hosts assigned, so neither SelectFree nor another
// Reserve can hand them out until Release.
type Reservation struct {
	Owner string
	Hosts []*Host
}

// ReservableWhenFree reports whether the host would satisfy the farm's
// reservation criteria once its parallel subprocess (if any) is
// released: the regular user is absent per the Reclaim event protocol
// and the user-attributable load sits below the selection threshold. It
// is the per-host predicate behind reservable(), and schedulers share it
// wherever they must predict a held host's future availability — the
// EASY shadow walk and the preemption capacity count — so those
// estimates can never diverge from what Reserve will actually grant.
func (h *Host) ReservableWhenFree(pol SelectionPolicy) bool {
	return !h.reclaimed && h.UserLoad15() < pol.MaxLoad15
}

// ErrShortfall reports fewer reservable hosts than Reserve or Migrate was
// asked for; it comes back before anything is allocated or drawn from the RNG.
var ErrShortfall = errors.New("cluster: not enough reservable hosts")

// reservable returns the hosts a farm scheduler may claim, split into the
// preferred idle-user group and the active-user group of section 4.1 — in
// the cluster's scratch, which the next call overwrites (see take).
//
// It differs from SelectFree in two deliberate ways. First, the load
// threshold applies to the user-attributable load (UserLoad15) rather
// than the blended uptime average: the farm knows which subprocesses are
// its own, so a host that just released one is immediately reusable even
// though its visible load average has not decayed yet; only regular
// users' activity makes a host ineligible. Second, a host whose user is
// present per the Reclaim event protocol is excluded even before the
// user's load shows up in the averages — otherwise the farm would claim
// back the very machine it just vacated.
func (c *Cluster) reservable(pol SelectionPolicy) (idle, active []*Host) {
	idle, active = c.idle[:0], c.active[:0]
	for _, h := range c.Hosts {
		if h.assigned >= 0 || !h.ReservableWhenFree(pol) {
			continue
		}
		if h.idleFor >= pol.MinIdle {
			idle = append(idle, h)
		} else {
			active = append(active, h)
		}
	}
	c.idle, c.active = idle, active
	return idle, active
}

// Capacity counts the hosts a Reserve call could claim right now.
func (c *Cluster) Capacity(pol SelectionPolicy) int {
	n := 0
	for _, h := range c.Hosts {
		if h.assigned < 0 && h.ReservableWhenFree(pol) {
			n++
		}
	}
	return n
}

// take orders the two tiers for a reservation scan in the cluster's
// scratch and returns a fresh slice of the first n hosts.
func (c *Cluster) take(n int, idle, active []*Host, rng *rand.Rand) []*Host {
	c.order = appendTier(c.order[:0], idle, rng)
	c.order = appendTier(c.order, active, rng)
	return append([]*Host(nil), c.order[:n]...)
}

// Reserve claims n hosts for the named owner, assigning rank i to the
// i-th chosen host. The scan keeps the section-4.1 preferences — idle-user
// hosts before active-user hosts, faster models first — but within each
// preference tier the order is a fresh random permutation drawn from rng,
// in the spirit of Lee & Wright's random-permutation fix for cyclic scan
// orders: no fixed host ordering can produce adversarial worst-case
// packing across scheduling rounds. A nil rng keeps the deterministic
// name order of SelectFree.
func (c *Cluster) Reserve(owner string, n int, pol SelectionPolicy, rng *rand.Rand) (*Reservation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: reserve %d hosts", n)
	}
	idle, active := c.reservable(pol)
	if len(idle)+len(active) < n {
		return nil, ErrShortfall
	}
	r := &Reservation{Owner: owner, Hosts: c.take(n, idle, active, rng)}
	for i, h := range r.Hosts {
		h.AssignTo(owner, i)
	}
	return r, nil
}

// appendTier arranges one preference group for a reservation scan and
// appends it to dst: a fresh random permutation from rng (or
// deterministic name order when rng is nil), then a stable partition by
// model preference (a counting sort), so the permutation survives within
// each model tier.
func appendTier(dst, hosts []*Host, rng *rand.Rand) []*Host {
	if rng != nil {
		rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	} else {
		slices.SortStableFunc(hosts, func(a, b *Host) int { return strings.Compare(a.Name, b.Name) })
	}
	var count [3]int
	for _, h := range hosts {
		count[modelPreference(h.Model)]++
	}
	next := [3]int{0, count[0], count[0] + count[1]}
	n := len(dst)
	dst = append(dst, hosts...)
	for _, h := range hosts {
		p := modelPreference(h.Model)
		dst[n+next[p]] = h
		next[p]++
	}
	return dst
}

// Release frees every host still held by the reservation. Hosts whose
// assignment changed hands since (another owner, or the single-job
// protocol) are left alone, so Release is safe to call after a job's own
// cleanup already unassigned them.
func (r *Reservation) Release() {
	for _, h := range r.Hosts {
		if h != nil && h.assigned >= 0 && h.owner == r.Owner {
			h.Unassign()
		}
	}
}

// Shrink releases the reservation's claim on the given hosts — reclaimed
// by their regular users — and returns the displaced rank indices. The
// slots are left empty (nil) until Cluster.Migrate rehosts them; a
// reservation with empty slots cannot serve its job, so Shrink is only a
// building block of the migrate-or-suspend paths.
func (r *Reservation) Shrink(drop []*Host) []int {
	var ranks []int
	for _, d := range drop {
		for rank, h := range r.Hosts {
			if h == nil || h != d {
				continue
			}
			if h.assigned >= 0 && h.owner == r.Owner {
				h.Unassign()
			}
			r.Hosts[rank] = nil
			ranks = append(ranks, rank)
		}
	}
	slices.Sort(ranks)
	return ranks
}

// Migrate moves the reservation's claim off the given busy hosts onto
// freshly scanned replacements, preserving every displaced rank's slot:
// afterwards Hosts[rank] is the new home of rank. The replacement scan
// follows the same preference tiers and random permutation as Reserve.
// When fewer replacements are reservable than hosts were reclaimed the
// reservation is left untouched and an error is returned — the caller
// falls back to suspending the whole job (it must not squat beside the
// returned users).
func (c *Cluster) Migrate(r *Reservation, busy []*Host, pol SelectionPolicy, rng *rand.Rand) (ranks []int, repl []*Host, err error) {
	if len(busy) == 0 {
		return nil, nil, nil
	}
	idle, active := c.reservable(pol)
	if len(idle)+len(active) < len(busy) {
		return nil, nil, fmt.Errorf("cluster: migrate %d ranks of %q: only %d reservable hosts: %w",
			len(busy), r.Owner, len(idle)+len(active), ErrShortfall)
	}
	ranks = r.Shrink(busy)
	repl = c.take(len(ranks), idle, active, rng)
	for i, rank := range ranks {
		repl[i].AssignTo(r.Owner, rank)
		r.Hosts[rank] = repl[i]
	}
	return ranks, repl, nil
}
