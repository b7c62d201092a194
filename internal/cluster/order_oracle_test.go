package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// orderTiersOracle is the reservation scan's tier order as it was written
// with reflection sorts, frozen: shuffle (or name-sort) each tier, then a
// stable sort by model preference.
func orderTiersOracle(idle, active []*Host, rng *rand.Rand) {
	order := func(hosts []*Host) {
		if rng != nil {
			rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		} else {
			sort.SliceStable(hosts, func(i, j int) bool { return hosts[i].Name < hosts[j].Name })
		}
		sort.SliceStable(hosts, func(i, j int) bool {
			return modelPreference(hosts[i].Model) < modelPreference(hosts[j].Model)
		})
	}
	order(idle)
	order(active)
}

// selectFreeOracle is SelectFree as it was written with a reflection
// sort and a shared classifier, frozen.
func selectFreeOracle(c *Cluster, n int, pol SelectionPolicy) []*Host {
	classify := func(pol SelectionPolicy, loadOf func(*Host) float64) (idle, active []*Host) {
		for _, h := range c.Hosts {
			if h.assigned >= 0 {
				continue
			}
			if loadOf(h) >= pol.MaxLoad15 {
				continue
			}
			if h.idleFor >= pol.MinIdle {
				idle = append(idle, h)
			} else {
				active = append(active, h)
			}
		}
		return idle, active
	}
	idleUser, activeUser := classify(pol, func(h *Host) float64 { return h.loads[2] })
	prefer := func(hosts []*Host) {
		sort.SliceStable(hosts, func(i, j int) bool {
			pi, pj := modelPreference(hosts[i].Model), modelPreference(hosts[j].Model)
			if pi != pj {
				return pi < pj
			}
			return hosts[i].Name < hosts[j].Name
		})
	}
	prefer(idleUser)
	prefer(activeUser)
	out := append(idleUser, activeUser...)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// tiedPool is a seeded pool full of ties: the paper's three models in a
// shuffled order, names drawn from a few repeated stems (so the nil-rng
// name order and SelectFree's name tie-break see equal names), some users
// active, some hosts loaded or already assigned.
func tiedPool(seed int64) *Cluster {
	r := rand.New(rand.NewSource(seed))
	c := &Cluster{}
	for i := range 30 {
		h := NewHost(fmt.Sprintf("ws-%d", r.Intn(6)), Model(r.Intn(3)))
		switch r.Intn(6) {
		case 0:
			h.TouchUser()
		case 1:
			h.StartJob()
		case 2:
			h.AssignTo("", i)
		}
		c.Hosts = append(c.Hosts, h)
	}
	c.Advance(10 * time.Minute)
	return c
}

func names(hosts []*Host) []string {
	out := make([]string, len(hosts))
	for i, h := range hosts {
		out[i] = fmt.Sprintf("%s/%v", h.Name, h.Model)
	}
	return out
}

// TestTakeMatchesSortOracle: the partition orders each tier exactly as the
// frozen stable sorts did, with an rng (same permutation, same draws
// after) and without one (name order, equal names kept in pool order).
func TestTakeMatchesSortOracle(t *testing.T) {
	pol := DefaultPolicy()
	for seed := int64(1); seed <= 40; seed++ {
		for _, seeded := range []bool{true, false} {
			c := tiedPool(seed)
			idle, active := c.reservable(pol)
			wantIdle, wantActive := slices.Clone(idle), slices.Clone(active)
			var rngWant, rngGot *rand.Rand
			if seeded {
				rngWant, rngGot = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			}
			orderTiersOracle(wantIdle, wantActive, rngWant)
			want := append(wantIdle, wantActive...)
			got := c.take(len(want), idle, active, rngGot)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, rng %v: take ordered\n%v\nthe frozen sorts ordered\n%v", seed, seeded, names(got), names(want))
			}
			if seeded && rngGot.Int63() != rngWant.Int63() {
				t.Fatalf("seed %d: take drew a different number of values than the frozen sorts", seed)
			}
		}
	}
}

// TestSelectFreeMatchesSortOracle: SelectFree's order (model preference,
// then name, equal names in pool order) is the frozen sort's.
func TestSelectFreeMatchesSortOracle(t *testing.T) {
	pol := DefaultPolicy()
	for seed := int64(1); seed <= 40; seed++ {
		c := tiedPool(seed)
		for _, n := range []int{3, 12, 30} {
			if got, want := c.SelectFree(n, pol), selectFreeOracle(c, n, pol); !slices.Equal(got, want) {
				t.Fatalf("seed %d, n %d: SelectFree chose\n%v\nthe frozen sort chose\n%v", seed, n, names(got), names(want))
			}
		}
	}
}

// TestReserveAllocations pins a successful Reserve at two allocations,
// the Reservation and its host list: the tier order is built in the
// cluster's scratch.
func TestReserveAllocations(t *testing.T) {
	c := idlePaperCluster()
	pol := DefaultPolicy()
	rng := rand.New(rand.NewSource(3))
	n := testing.AllocsPerRun(100, func() {
		res, err := c.Reserve("j", 8, pol, rng)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
	if n != 2 {
		t.Errorf("a successful Reserve allocates %v times, want 2", n)
	}
}
