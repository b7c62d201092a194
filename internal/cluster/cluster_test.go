package cluster

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestPaperClusterComposition(t *testing.T) {
	c := NewPaperCluster()
	if len(c.Hosts) != 25 {
		t.Fatalf("pool size %d, want 25", len(c.Hosts))
	}
	count := map[Model]int{}
	for _, h := range c.Hosts {
		count[h.Model]++
	}
	if count[HP715] != 16 || count[HP720] != 6 || count[HP710] != 3 {
		t.Errorf("composition %v, want 16/6/3", count)
	}
}

// speedFactorByIndex is SpeedFactor as it was written before the switch:
// the row found with slices.Index over the method names, frozen.
func speedFactorByIndex(m Model, method string) float64 {
	methods := []string{"lb2d", "lb3d", "fd2d", "fd3d"}
	if m < 0 || int(m) >= len(speedTable[0]) {
		return 0
	}
	return speedTable[max(0, slices.Index(methods, method))][m]
}

// TestSpeedFactorMatchesIndexOracle checks the switch against the
// index lookup it replaced, bit for bit: every cell of the 4x3 table,
// unknown methods (a near miss, the wrong case, empty) and models out
// of range on both sides.
func TestSpeedFactorMatchesIndexOracle(t *testing.T) {
	for _, method := range []string{"lb2d", "lb3d", "fd2d", "fd3d", "fd2", "LB3D", "", "spectral"} {
		for m := Model(-2); m <= Model(4); m++ {
			got, want := m.SpeedFactor(method), speedFactorByIndex(m, method)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Model(%d).SpeedFactor(%q) = %v, want %v", int(m), method, got, want)
			}
		}
	}
}

func TestSpeedTable(t *testing.T) {
	// The section-7 speed table, relative to the 715/50, cell by cell
	// against literals; an unknown method reads the LB 2D row and an
	// unknown model has no speed.
	cases := []struct {
		method string
		model  Model
		want   float64
	}{
		{"lb2d", HP715, 1.0}, {"lb2d", HP710, 0.84}, {"lb2d", HP720, 0.86},
		{"lb3d", HP715, 0.51}, {"lb3d", HP710, 0.40}, {"lb3d", HP720, 0.42},
		{"fd2d", HP715, 1.24}, {"fd2d", HP710, 1.08}, {"fd2d", HP720, 1.17},
		{"fd3d", HP715, 1.0}, {"fd3d", HP710, 0.85}, {"fd3d", HP720, 0.94},
		{"spectral", HP715, 1.0}, {"spectral", HP710, 0.84}, {"spectral", HP720, 0.86},
		{"", HP710, 0.84},
		{"lb2d", Model(3), 0}, {"fd3d", Model(-1), 0}, {"spectral", Model(7), 0},
	}
	for _, c := range cases {
		if got := c.model.SpeedFactor(c.method); got != c.want {
			t.Errorf("SpeedFactor(%s, %v) = %v, want %v", c.method, c.model, got, c.want)
		}
	}
	h := NewHost("x", HP720)
	h.StartJob()
	base, factor := 39132.0, 1.17 // variables: float64 products, not exact constant ones
	if got, want := h.Speed("fd2d"), base*factor/2; got != want {
		t.Errorf("Speed(fd2d) on a 720 beside one job = %v, want %v", got, want)
	}
}

// tick advances one host by a second.
func tick(h *Host) { (&Cluster{Hosts: []*Host{h}}).Advance(time.Second) }

func TestLoadAverageConverges(t *testing.T) {
	h := NewHost("x", HP715)
	h.StartJob()
	// After 5 minutes, the 1-minute average is nearly 1; the 15-minute
	// average lags behind.
	for i := 0; i < 300; i++ {
		tick(h)
	}
	l1, l5, l15 := h.Uptime()
	if l1 < 0.95 {
		t.Errorf("l1 = %v, want near 1", l1)
	}
	if l5 < 0.5 || l5 > 0.75 {
		t.Errorf("l5 = %v, want ~0.63 after one tau", l5)
	}
	if l15 > l5 || l5 > l1 {
		t.Errorf("averages out of order: %v %v %v", l1, l5, l15)
	}
	h.StopJob()
	for i := 0; i < 3600; i++ {
		tick(h)
	}
	l1, _, l15 = h.Uptime()
	if l1 > 0.01 || l15 > 0.05 {
		t.Errorf("load did not decay: l1=%v l15=%v", l1, l15)
	}
}

func TestAssignedSubprocessContributesLoad(t *testing.T) {
	h := NewHost("x", HP715)
	h.AssignTo("", 3)
	for i := 0; i < 1200; i++ {
		tick(h)
	}
	_, l5, _ := h.Uptime()
	if l5 < 0.9 {
		t.Errorf("l5 = %v, want ~1 with a parallel subprocess running", l5)
	}
	// Adding one competing full-time job pushes the load toward 2, past
	// the migration threshold.
	h.StartJob()
	for i := 0; i < 1200; i++ {
		tick(h)
	}
	_, l5, _ = h.Uptime()
	if l5 < 1.6 {
		t.Errorf("l5 = %v, want approaching 2", l5)
	}
}

func TestSelectFreePrefersIdle715(t *testing.T) {
	c := NewPaperCluster()
	c.Advance(30 * time.Minute) // everyone idle > 20 min, zero load
	// Make two 715s active-user machines and one busy.
	c.Hosts[0].TouchUser()
	c.Hosts[1].TouchUser()
	c.Hosts[2].StartJob()
	c.Advance(20 * time.Second)
	got := c.SelectFree(20, DefaultPolicy())
	if len(got) != 20 {
		t.Fatalf("selected %d hosts, want 20", len(got))
	}
	// The first selections must be idle-user 715s, not the touched ones.
	for i := 0; i < 13; i++ {
		if got[i].Model != HP715 {
			t.Errorf("selection %d is %v, want HP715 first", i, got[i].Model)
		}
		if got[i].Name == "hp715-00" || got[i].Name == "hp715-01" {
			t.Errorf("active-user host %s selected before idle hosts", got[i].Name)
		}
	}
	// 720s are preferred over 710s within the idle group.
	idx720, idx710 := -1, -1
	for i, h := range got {
		if h.Model == HP720 && idx720 == -1 {
			idx720 = i
		}
		if h.Model == HP710 && idx710 == -1 {
			idx710 = i
		}
	}
	if idx720 == -1 || (idx710 != -1 && idx720 > idx710) {
		t.Errorf("720 selected at %d, 710 at %d; want 720 first", idx720, idx710)
	}
}

func TestSelectFreeSkipsLoadedAndAssigned(t *testing.T) {
	c := NewPaperCluster()
	c.Advance(30 * time.Minute)
	// A host with a long-running job exceeds the 0.6 load threshold.
	c.Hosts[5].StartJob()
	c.Advance(30 * time.Minute)
	c.Hosts[6].AssignTo("", 0)
	got := c.SelectFree(25, DefaultPolicy())
	for _, h := range got {
		if h.Name == c.Hosts[5].Name {
			t.Error("loaded host selected")
		}
		if h.Name == c.Hosts[6].Name {
			t.Error("already-assigned host selected")
		}
	}
	if len(got) != 23 {
		t.Errorf("selected %d, want 23", len(got))
	}
}

func TestNeedsMigration(t *testing.T) {
	c := NewPaperCluster()
	c.Advance(30 * time.Minute)
	h := c.Hosts[3]
	h.AssignTo("", 7)
	// Subprocess alone: load ~1, no migration.
	c.Advance(20 * time.Minute)
	if busy := c.NeedsMigration(DefaultMigrationPolicy()); len(busy) != 0 {
		t.Errorf("migration triggered with no competing job: %v", busy)
	}
	// A second full-time process arrives: load -> 2 > 1.5.
	h.StartJob()
	c.Advance(10 * time.Minute)
	busy := c.NeedsMigration(DefaultMigrationPolicy())
	if len(busy) != 1 || busy[0] != h {
		t.Errorf("NeedsMigration = %v, want [%s]", busy, h.Name)
	}
	// Unassigned hosts never appear, however loaded.
	h.Unassign()
	if busy := c.NeedsMigration(DefaultMigrationPolicy()); len(busy) != 0 {
		t.Errorf("unassigned host flagged: %v", busy)
	}
}

func TestSpeedDegradesWithCompetingJobs(t *testing.T) {
	h := NewHost("x", HP715)
	full := h.Speed("lb2d")
	if full != BaseNodesPerSecond {
		t.Errorf("idle 715 speed = %v, want %v", full, BaseNodesPerSecond)
	}
	h.StartJob()
	if got := h.Speed("lb2d"); got != full/2 {
		t.Errorf("speed with one competitor = %v, want half", got)
	}
}

func TestByName(t *testing.T) {
	c := NewPaperCluster()
	if c.ByName("hp720-03") == nil {
		t.Error("ByName failed to find existing host")
	}
	if c.ByName("nope") != nil {
		t.Error("ByName invented a host")
	}
}
