package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// --- SelectFree edge cases -------------------------------------------------

func TestSelectFreeEmptyPool(t *testing.T) {
	c := &Cluster{}
	if got := c.SelectFree(5, DefaultPolicy()); len(got) != 0 {
		t.Errorf("empty pool selected %d hosts", len(got))
	}
}

func TestSelectFreeAllBusy(t *testing.T) {
	c := NewPaperCluster()
	c.Advance(30 * time.Minute)
	for _, h := range c.Hosts {
		h.StartJob()
	}
	c.Advance(30 * time.Minute) // loads settle near 1 > 0.6
	if got := c.SelectFree(5, DefaultPolicy()); len(got) != 0 {
		t.Errorf("all-busy pool selected %d hosts", len(got))
	}
}

func TestSelectFreeFewerThanRequested(t *testing.T) {
	c := NewPaperCluster()
	c.Advance(30 * time.Minute)
	// Occupy all but three hosts with parallel subprocesses.
	for i, h := range c.Hosts {
		if i >= 3 {
			h.AssignTo("", i)
		}
	}
	got := c.SelectFree(10, DefaultPolicy())
	if len(got) != 3 {
		t.Errorf("selected %d hosts, want the 3 free ones", len(got))
	}
}

func TestSelectFreeZero(t *testing.T) {
	c := NewPaperCluster()
	c.Advance(30 * time.Minute)
	if got := c.SelectFree(0, DefaultPolicy()); len(got) != 0 {
		t.Errorf("n=0 selected %d hosts", len(got))
	}
}

// TestSelectFreeModelTieBreak: within one availability group, 715s come
// before 720s before 710s, and names order ties within a model.
func TestSelectFreeModelTieBreak(t *testing.T) {
	c := NewPaperCluster()
	c.Advance(30 * time.Minute)
	got := c.SelectFree(25, DefaultPolicy())
	if len(got) != 25 {
		t.Fatalf("selected %d hosts, want 25", len(got))
	}
	lastPref, lastName := -1, ""
	for _, h := range got {
		p := modelPreference(h.Model)
		if p < lastPref {
			t.Fatalf("model preference went backwards at %s", h.Name)
		}
		if p == lastPref && h.Name < lastName {
			t.Fatalf("name order violated within model tier at %s", h.Name)
		}
		lastPref, lastName = p, h.Name
	}
}

// --- NeedsMigration edge cases ---------------------------------------------

func TestNeedsMigrationEmptyAndUnassigned(t *testing.T) {
	c := &Cluster{}
	if got := c.NeedsMigration(DefaultMigrationPolicy()); len(got) != 0 {
		t.Errorf("empty pool needs migration: %v", got)
	}
	c = NewPaperCluster()
	for _, h := range c.Hosts {
		h.StartJob()
		h.StartJob()
	}
	c.Advance(time.Hour)
	if got := c.NeedsMigration(DefaultMigrationPolicy()); len(got) != 0 {
		t.Errorf("loaded but unassigned hosts flagged: %v", got)
	}
}

func TestNeedsMigrationThresholdBoundary(t *testing.T) {
	c := NewPaperCluster()
	h := c.Hosts[0]
	h.AssignTo("", 0)
	h.StartJob() // blended load target: 2 (subprocess + user job)
	c.Advance(time.Hour)
	if got := c.NeedsMigration(MigrationPolicy{MaxLoad5: 2.5}); len(got) != 0 {
		t.Errorf("load below threshold flagged: %v", got)
	}
	got := c.NeedsMigration(DefaultMigrationPolicy())
	if len(got) != 1 || got[0] != h {
		t.Errorf("NeedsMigration = %v, want [%s]", got, h.Name)
	}
}

// --- Reservation API -------------------------------------------------------

func idlePaperCluster() *Cluster {
	c := NewPaperCluster()
	c.Advance(30 * time.Minute)
	return c
}

func TestReserveClaimsAndReleases(t *testing.T) {
	c := idlePaperCluster()
	res, err := c.Reserve("job-a", 20, DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 20 {
		t.Fatalf("reserved %d hosts, want 20", len(res.Hosts))
	}
	for i, h := range res.Hosts {
		if h.Assigned() != i || h.Owner() != "job-a" {
			t.Errorf("host %s: assigned=%d owner=%q, want rank %d of job-a",
				h.Name, h.Assigned(), h.Owner(), i)
		}
	}
	if got := c.Capacity(DefaultPolicy()); got != 5 {
		t.Errorf("capacity after reserve = %d, want 5", got)
	}
	// A second job cannot over-claim the remainder.
	if _, err := c.Reserve("job-b", 6, DefaultPolicy(), nil); err == nil {
		t.Error("over-reservation accepted")
	}
	res.Release()
	if got := c.Capacity(DefaultPolicy()); got != 25 {
		t.Errorf("capacity after release = %d, want 25", got)
	}
}

// TestReserveReusesJustReleasedHosts: the farm discounts its own
// subprocesses' load, so a host handed back one instant ago is reservable
// again even though the blended uptime average has not decayed.
func TestReserveReusesJustReleasedHosts(t *testing.T) {
	c := idlePaperCluster()
	res, err := c.Reserve("job-a", 25, DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(time.Hour) // blended loads settle near 1 on every host
	res.Release()
	if got := c.SelectFree(25, DefaultPolicy()); len(got) != 0 {
		t.Errorf("section-4.1 selection sees %d free hosts before loads decay", len(got))
	}
	if got := c.Capacity(DefaultPolicy()); got != 25 {
		t.Errorf("farm capacity = %d, want 25 (own load discounted)", got)
	}
	if _, err := c.Reserve("job-b", 25, DefaultPolicy(), nil); err != nil {
		t.Errorf("re-reserve after release failed: %v", err)
	}
}

// TestReserveExcludesUserLoad: regular users' processes do make a host
// ineligible for reservation.
func TestReserveExcludesUserLoad(t *testing.T) {
	c := idlePaperCluster()
	c.Hosts[0].StartJob()
	c.Advance(30 * time.Minute)
	if got := c.Capacity(DefaultPolicy()); got != 24 {
		t.Errorf("capacity with one user-busy host = %d, want 24", got)
	}
	res, err := c.Reserve("job-a", 24, DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hosts {
		if h == c.Hosts[0] {
			t.Error("user-busy host reserved")
		}
	}
}

// TestReservePrefersIdleAndFastModels: the section-4.1 scan preferences
// survive the randomized permutation.
func TestReservePrefersIdleAndFastModels(t *testing.T) {
	c := idlePaperCluster()
	c.Hosts[0].TouchUser() // one active-user 715
	rng := rand.New(rand.NewSource(7))
	res, err := c.Reserve("job-a", 25, DefaultPolicy(), rng)
	if err != nil {
		t.Fatal(err)
	}
	// The active-user host must come last despite being a 715.
	if res.Hosts[24] != c.Hosts[0] {
		t.Errorf("active-user host at position %v, want last", res.Hosts[24].Name)
	}
	// Within the idle group: 15 remaining 715s, then 720s, then 710s.
	for i, h := range res.Hosts[:24] {
		want := HP715
		switch {
		case i >= 15 && i < 21:
			want = HP720
		case i >= 21:
			want = HP710
		}
		if h.Model != want {
			t.Errorf("position %d is %v, want %v", i, h.Model, want)
		}
	}
}

// TestReserveRandomizedScanVaries: different seeds produce different
// permutations within a tier, while one seed reproduces exactly.
func TestReserveRandomizedScanVaries(t *testing.T) {
	names := func(seed int64) []string {
		c := idlePaperCluster()
		res, err := c.Reserve("j", 16, DefaultPolicy(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res.Hosts))
		for i, h := range res.Hosts {
			out[i] = h.Name
		}
		return out
	}
	a1, a2, b := names(1), names(1), names(2)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, a1[i], a2[i])
		}
	}
	diff := false
	for i := range a1 {
		if a1[i] != b[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("seeds 1 and 2 produced the identical permutation of 16 hosts")
	}
}

func TestReserveRejectsBadCount(t *testing.T) {
	c := idlePaperCluster()
	if _, err := c.Reserve("j", 0, DefaultPolicy(), nil); err == nil || errors.Is(err, ErrShortfall) {
		t.Errorf("n=0 reservation: err = %v, want an error that is not a shortfall", err)
	}
	if _, err := c.Reserve("j", 26, DefaultPolicy(), nil); !errors.Is(err, ErrShortfall) {
		t.Errorf("reservation beyond pool size: err = %v, want ErrShortfall", err)
	}
}

// TestShortfallLeavesRNGUntouched: a Reserve or Migrate that fails for
// lack of hosts draws nothing, so a scheduler may try and fail any number
// of placements without moving the placement scan's random stream.
func TestShortfallLeavesRNGUntouched(t *testing.T) {
	pol := DefaultPolicy()
	next := func(fail bool) int64 {
		c := idlePaperCluster()
		rng := rand.New(rand.NewSource(42))
		res, err := c.Reserve("held", 23, pol, rng)
		if err != nil {
			t.Fatal(err)
		}
		if fail {
			if _, err := c.Reserve("wide", 3, pol, rng); !errors.Is(err, ErrShortfall) {
				t.Fatalf("Reserve(3) with 2 hosts free: err = %v, want ErrShortfall", err)
			}
			for _, h := range c.Hosts {
				if h.Assigned() < 0 {
					c.Reclaim(h) // the last two free hosts go to their users
				}
			}
			if _, _, err := c.Migrate(res, res.Hosts[:1], pol, rng); !errors.Is(err, ErrShortfall) {
				t.Fatalf("Migrate with no host free: err = %v, want ErrShortfall", err)
			}
		}
		return rng.Int63()
	}
	if with, without := next(true), next(false); with != without {
		t.Errorf("next draw after failed calls = %d, without them = %d", with, without)
	}
}

// TestReservationOwnsItsHosts: the hosts a Reservation lists are its own
// copy — a later scan of the pool, which reuses the cluster's scratch,
// must not rewrite them.
func TestReservationOwnsItsHosts(t *testing.T) {
	c := idlePaperCluster()
	pol := DefaultPolicy()
	rng := rand.New(rand.NewSource(7))
	a, err := c.Reserve("a", 4, pol, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]*Host(nil), a.Hosts...)
	b, err := c.Reserve("b", 6, pol, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, repl, err := c.Migrate(b, b.Hosts[:2], pol, rng)
	if err != nil {
		t.Fatal(err)
	}
	replWant := append([]*Host(nil), repl...)
	c.Capacity(pol)
	if _, err := c.Reserve("c", 5, pol, rng); err != nil {
		t.Fatal(err)
	}
	for i, h := range a.Hosts {
		if h != want[i] || h.Owner() != "a" || h.Assigned() != i {
			t.Errorf("a.Hosts[%d] = %s (owner %q, rank %d) after later scans, want %s held as rank %d",
				i, h.Name, h.Owner(), h.Assigned(), want[i].Name, i)
		}
	}
	for i, h := range repl {
		if h != replWant[i] || h.Owner() != "b" {
			t.Errorf("Migrate's replacement %d = %s (owner %q) after a later Reserve, want %s held by b",
				i, h.Name, h.Owner(), replWant[i].Name)
		}
	}
}

// TestRoundAllocatesNothingOnAShortfall gates the calls a scheduling
// round makes for every queued job that does not fit: reading a host's
// speed, counting capacity, and a Reserve that fails for lack of hosts.
func TestRoundAllocatesNothingOnAShortfall(t *testing.T) {
	c := idlePaperCluster()
	pol := DefaultPolicy()
	rng := rand.New(rand.NewSource(1))
	if _, err := c.Reserve("held", 20, pol, rng); err != nil {
		t.Fatal(err)
	}
	h := c.Hosts[0]
	sink := 0.0
	gates := []struct {
		name string
		fn   func()
	}{
		{"Host.Speed", func() { sink += h.Speed("lb3d") + h.Speed("unknown") }},
		{"Cluster.Capacity", func() { sink += float64(c.Capacity(pol)) }},
		{"Reserve short of hosts", func() {
			if _, err := c.Reserve("wide", 8, pol, rng); err != ErrShortfall {
				t.Fatalf("Reserve(8) with 5 hosts free: err = %v, want ErrShortfall itself", err)
			}
		}},
	}
	for _, g := range gates {
		if n := testing.AllocsPerRun(100, g.fn); n != 0 {
			t.Errorf("%s allocates %v times a call, want 0", g.name, n)
		}
	}
}

// TestReleaseRespectsNewOwner: hosts reassigned since are left alone.
func TestReleaseRespectsNewOwner(t *testing.T) {
	c := idlePaperCluster()
	res, err := c.Reserve("job-a", 2, DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Hosts[0].Unassign()
	res.Hosts[0].AssignTo("job-b", 0)
	res.Release()
	if res.Hosts[0].Owner() != "job-b" {
		t.Error("release stole job-b's host")
	}
	if res.Hosts[1].Assigned() != -1 {
		t.Error("release left job-a's host assigned")
	}
}

// TestCapacityCountsReservable checks the counting Capacity against the
// tiers Reserve builds, over seeded pools of claimed, reclaimed, loaded
// and busy-user hosts, and checks that counting allocates nothing.
func TestCapacityCountsReservable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pol := DefaultPolicy()
	for trial := 0; trial < 200; trial++ {
		c := NewPaperCluster()
		for _, h := range c.Hosts {
			switch rng.Intn(5) {
			case 0:
				h.AssignTo("", 0)
			case 1:
				h.reclaimed = true
			case 2:
				h.StartJob()
			case 3:
				h.TouchUser()
			}
		}
		c.Advance(time.Duration(rng.Intn(40)) * time.Minute)
		idle, active := c.reservable(pol)
		if got, want := c.Capacity(pol), len(idle)+len(active); got != want {
			t.Fatalf("trial %d: Capacity = %d, reservable holds %d", trial, got, want)
		}
		if n := testing.AllocsPerRun(10, func() { c.Capacity(pol) }); n != 0 {
			t.Fatalf("trial %d: Capacity allocated %v objects", trial, n)
		}
	}
}
