package cluster

import (
	"testing"
	"time"
)

// idleCluster returns the paper pool with every user idle past the
// section-4.1 threshold.
func idleCluster() *Cluster {
	c := NewPaperCluster()
	c.Advance(30 * time.Minute)
	return c
}

// TestReclaimEventStream: Reclaim records an event stamped with the
// virtual time, flips the host's user-present flag instantly (no waiting
// for load averages), and UserGone records the matching release.
func TestReclaimEventStream(t *testing.T) {
	c := idleCluster()
	h := c.Hosts[0]
	c.Advance(5 * time.Minute)
	at := c.Now()

	c.Reclaim(h)
	if !h.Reclaimed() {
		t.Error("host not marked reclaimed")
	}
	if h.idleFor != 0 {
		t.Errorf("idle clock = %v after user returned", h.idleFor)
	}
	if h.Jobs() != 1 {
		t.Errorf("user jobs = %d, want 1", h.Jobs())
	}

	c.UserGone(h)
	if h.Reclaimed() {
		t.Error("host still reclaimed after UserGone")
	}

	evs := c.DrainEvents()
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2 (reclaim + release)", len(evs))
	}
	if evs[0].Kind != EventReclaim || evs[0].Host != h || evs[0].At != at {
		t.Errorf("reclaim event = %+v, want kind=reclaim host=%s at=%v", evs[0], h.Name, at)
	}
	if evs[1].Kind != EventRelease || evs[1].Host != h {
		t.Errorf("release event = %+v, want kind=release host=%s", evs[1], h.Name)
	}
	if left := c.DrainEvents(); len(left) != 0 {
		t.Errorf("stream not cleared: %d events remain", len(left))
	}
}

// TestUserGoneKeepsUserUntilLastProcess: two Reclaims stack two user
// processes; the release event fires only when the last one leaves.
func TestUserGoneKeepsUserUntilLastProcess(t *testing.T) {
	c := idleCluster()
	h := c.Hosts[3]
	c.Reclaim(h)
	c.Reclaim(h)
	c.DrainEvents()
	c.UserGone(h)
	if !h.Reclaimed() {
		t.Error("user considered gone with a process still running")
	}
	if evs := c.DrainEvents(); len(evs) != 0 {
		t.Errorf("premature release event: %+v", evs)
	}
	c.UserGone(h)
	if h.Reclaimed() {
		t.Error("user still present after last process left")
	}
}

// TestReclaimedHostNotReservable: the flag makes a host ineligible the
// instant the user returns, even though its user load has not climbed
// yet — and eligible again right after the user leaves.
func TestReclaimedHostNotReservable(t *testing.T) {
	c := idleCluster()
	h := c.Hosts[7]
	if got := c.Capacity(DefaultPolicy()); got != 25 {
		t.Fatalf("capacity = %d, want 25", got)
	}
	c.Reclaim(h)
	if h.UserLoad15() >= DefaultPolicy().MaxLoad15 {
		t.Fatalf("user load already over threshold; the flag test is vacuous")
	}
	if got := c.Capacity(DefaultPolicy()); got != 24 {
		t.Errorf("capacity = %d after reclaim, want 24", got)
	}
	c.UserGone(h)
	if got := c.Capacity(DefaultPolicy()); got != 25 {
		t.Errorf("capacity = %d after user left, want 25", got)
	}
}

// TestNeedsMigrationOnReclaim: a reserved host fires the migration
// trigger immediately on reclaim, without waiting for the five-minute
// load to cross the threshold.
func TestNeedsMigrationOnReclaim(t *testing.T) {
	c := idleCluster()
	res, err := c.Reserve("job-a", 3, DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if busy := c.NeedsMigration(DefaultMigrationPolicy()); len(busy) != 0 {
		t.Fatalf("quiet pool needs migration: %v", busy)
	}
	c.Reclaim(res.Hosts[1])
	busy := c.NeedsMigration(DefaultMigrationPolicy())
	if len(busy) != 1 || busy[0] != res.Hosts[1] {
		t.Errorf("NeedsMigration = %v, want [%s]", busy, res.Hosts[1].Name)
	}
}

// TestMigrateSwapsReservation: Migrate rehosts the displaced rank onto a
// fresh machine, preserving the Hosts[rank] mapping and the owner, and
// frees the reclaimed host.
func TestMigrateSwapsReservation(t *testing.T) {
	c := idleCluster()
	res, err := c.Reserve("job-a", 3, DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	old := res.Hosts[1]
	c.Reclaim(old)

	ranks, repl, err := c.Migrate(res, []*Host{old}, DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 1 || ranks[0] != 1 || len(repl) != 1 {
		t.Fatalf("Migrate = ranks %v repl %v, want rank 1 and one replacement", ranks, repl)
	}
	if old.Assigned() != -1 {
		t.Error("reclaimed host still assigned after migration")
	}
	nh := res.Hosts[1]
	if nh != repl[0] || nh.Assigned() != 1 || nh.Owner() != "job-a" {
		t.Errorf("replacement %s: assigned %d owner %q, want rank 1 owner job-a",
			nh.Name, nh.Assigned(), nh.Owner())
	}
	if nh == old || nh.Reclaimed() {
		t.Error("migration picked a user-busy host")
	}
}

// TestMigrateFailsWithoutCapacity: when every other host is user-busy the
// reservation is left intact and an error tells the caller to suspend.
func TestMigrateFailsWithoutCapacity(t *testing.T) {
	c := idleCluster()
	res, err := c.Reserve("job-a", 2, DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range c.Hosts {
		if h.Assigned() < 0 {
			c.Reclaim(h) // users everywhere else
		}
	}
	c.Reclaim(res.Hosts[0])
	if _, _, err := c.Migrate(res, []*Host{res.Hosts[0]}, DefaultPolicy(), nil); err == nil {
		t.Fatal("Migrate succeeded with zero reservable hosts")
	}
	if res.Hosts[0] == nil || res.Hosts[0].Assigned() != 0 {
		t.Error("failed Migrate mutated the reservation")
	}
}

// TestShrinkAndRelease: Shrink empties the displaced slots and Release
// tolerates them.
func TestShrinkAndRelease(t *testing.T) {
	c := idleCluster()
	res, err := c.Reserve("job-a", 3, DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dropped := res.Hosts[2]
	ranks := res.Shrink([]*Host{dropped})
	if len(ranks) != 1 || ranks[0] != 2 {
		t.Fatalf("Shrink = %v, want [2]", ranks)
	}
	if res.Hosts[2] != nil {
		t.Error("shrunk slot not emptied")
	}
	if dropped.Assigned() != -1 {
		t.Error("shrunk host still assigned")
	}
	res.Release()
	for _, h := range c.Hosts {
		if h.Assigned() >= 0 {
			t.Errorf("host %s still assigned after Release", h.Name)
		}
	}
}
