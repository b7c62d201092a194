package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestSnapshotRoundTrip drives a pool through load evolution, a
// reservation and an undrained reclaim event, snapshots it, and restores
// into a freshly built pool: every observable — clock, load averages,
// idle clocks, reclaim flags, assignments, pending events — must come
// back bit-identical, since the farm's crash recovery builds on it.
func TestSnapshotRoundTrip(t *testing.T) {
	a := NewPaperCluster()
	a.Advance(17 * time.Minute)
	a.Hosts[3].StartJob()
	a.Hosts[3].TouchUser()
	a.Advance(7 * time.Minute)
	if _, err := a.Reserve("jobX", 4, DefaultPolicy(), rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
	a.Reclaim(a.Hosts[9])
	a.Advance(90 * time.Second)

	b := NewPaperCluster()
	if err := b.RestoreSnapshot(a.Snapshot()); err != nil {
		t.Fatal(err)
	}

	if b.Now() != a.Now() {
		t.Errorf("restored clock %v, want %v", b.Now(), a.Now())
	}
	for i, ha := range a.Hosts {
		hb := b.ByName(ha.Name)
		if hb == nil {
			t.Fatalf("host %s missing after restore", ha.Name)
		}
		if ha.loads != hb.loads || ha.userLoads != hb.userLoads {
			t.Errorf("host %d loads differ: %v/%v vs %v/%v", i, ha.loads, ha.userLoads, hb.loads, hb.userLoads)
		}
		if ha.jobs != hb.jobs || ha.idleFor != hb.idleFor || ha.reclaimed != hb.reclaimed {
			t.Errorf("host %d state differs", i)
		}
		if ha.assigned != hb.assigned || ha.owner != hb.owner {
			t.Errorf("host %d assignment %d/%q vs %d/%q", i, ha.assigned, ha.owner, hb.assigned, hb.owner)
		}
	}
	evA, evB := a.DrainEvents(), b.DrainEvents()
	if len(evA) != 1 || len(evB) != 1 {
		t.Fatalf("pending events: original %d, restored %d, want 1 each", len(evA), len(evB))
	}
	if evA[0].Kind != evB[0].Kind || evA[0].At != evB[0].At || evA[0].Host.Name != evB[0].Host.Name {
		t.Errorf("restored event %+v differs from original %+v", evB[0], evA[0])
	}

	// The two pools must now evolve identically.
	a.Advance(5 * time.Minute)
	b.Advance(5 * time.Minute)
	for i := range a.Hosts {
		if a.Hosts[i].loads != b.Hosts[i].loads {
			t.Errorf("host %d diverged after restore", i)
		}
	}
}

// TestRestoreSnapshotShapeMismatch: restoring into the wrong pool must
// fail loudly rather than produce a silently wrong farm.
func TestRestoreSnapshotShapeMismatch(t *testing.T) {
	snap := NewPaperCluster().Snapshot()

	small := &Cluster{Hosts: []*Host{NewHost("only", HP715)}}
	if err := small.RestoreSnapshot(snap); err == nil {
		t.Error("restore into a 1-host pool succeeded")
	}

	renamed := NewPaperCluster()
	renamed.Hosts[0].Name = "imposter"
	if err := renamed.RestoreSnapshot(snap); err == nil {
		t.Error("restore with a missing host name succeeded")
	}

	remodeled := NewPaperCluster()
	remodeled.Hosts[0].Model = HP710
	if err := remodeled.RestoreSnapshot(snap); err == nil {
		t.Error("restore with a model mismatch succeeded")
	}
}

// TestRestoreSnapshotRefusedLeavesPool: a snapshot that does not fit the
// pool is refused before any host is written, however late in the host
// list (or the event list) the mismatch sits.
func TestRestoreSnapshotRefusedLeavesPool(t *testing.T) {
	src := NewPaperCluster()
	src.Advance(12 * time.Minute)
	src.Hosts[2].StartJob()
	if _, err := src.Reserve("jobX", 3, DefaultPolicy(), rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	src.Reclaim(src.Hosts[0])
	src.Advance(time.Minute)

	last := len(src.Hosts) - 1
	cases := []struct {
		name   string
		damage func(s *Snapshot)
	}{
		{"foreign last host", func(s *Snapshot) { s.Hosts[last].Name = "foreign" }},
		{"last host a different model", func(s *Snapshot) { s.Hosts[last].Model = HP715 }},
		{"repeated name", func(s *Snapshot) { s.Hosts[last].Name = s.Hosts[0].Name }},
		{"event on a foreign host", func(s *Snapshot) { s.Events[0].Host = "foreign" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := src.Snapshot()
			tc.damage(&snap)
			dst := NewPaperCluster()
			dst.Advance(3 * time.Minute)
			before := dst.Snapshot()
			if err := dst.RestoreSnapshot(snap); err == nil {
				t.Fatal("damaged snapshot restored")
			}
			if after := dst.Snapshot(); !reflect.DeepEqual(after, before) {
				t.Errorf("a refused restore changed the pool:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}
