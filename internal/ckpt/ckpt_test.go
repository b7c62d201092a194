package ckpt

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dump"
)

func sampleManifest() *Manifest {
	c := cluster.NewPaperCluster()
	c.Advance(30 * time.Minute)
	return &Manifest{
		SavedAt:   5 * time.Minute,
		Start:     30 * time.Minute,
		Policy:    "fifo",
		Backfill:  "easy",
		RNG:       0xdeadbeef,
		Reclaims:  2,
		StatesDir: StatesDirName(1),
		ServedByUser: map[string]time.Duration{
			"cfd": 3 * time.Minute,
		},
		Jobs: []JobRecord{
			{ID: "waiting", Method: "lb2d", JX: 2, JY: 2, Side: 40, Steps: 100,
				Phase: PhaseQueued, Accounting: Accounting{Remaining: 100, FirstStart: -1}},
			{ID: "active", Method: "lb2d", JX: 1, JY: 2, Side: 40, Steps: 200,
				Phase: PhaseRunning, Accounting: Accounting{Remaining: 120.5, StepSec: 0.04,
					Started: true}, Hosts: []string{"hp715-00", "hp715-01"},
				StateSteps: []int{80, 79}},
			{ID: "done", Method: "fd2d", JX: 1, JY: 1, Side: 10, Steps: 5,
				Phase: PhaseFinished, Accounting: Accounting{Started: true, DoneAt: time.Minute}},
		},
		Cluster: c.Snapshot(),
	}
}

func sampleState(rank, step int) *dump.State {
	return &dump.State{
		Rank: rank, Step: step, Method: "lb2d",
		NX: 4, NY: 4, NZ: 1,
		Fields: map[string][]float64{"rho": {1, 2, 3}},
	}
}

// TestManifestRoundTrip: Save then Load reproduces every field, including
// the float64 accounting, bit-exactly.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleManifest()
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != Version || got.SavedAt != want.SavedAt || got.Start != want.Start {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.RNG != want.RNG || got.Policy != want.Policy || got.Backfill != want.Backfill {
		t.Errorf("config mismatch: %+v", got)
	}
	if got.ServedByUser["cfd"] != 3*time.Minute || got.Reclaims != 2 {
		t.Errorf("accounting mismatch: %+v", got)
	}
	if len(got.Jobs) != 3 {
		t.Fatalf("%d jobs, want 3", len(got.Jobs))
	}
	active := got.Jobs[1]
	if active.Remaining != 120.5 || active.StepSec != 0.04 {
		t.Errorf("float accounting not bit-exact: %+v", active)
	}
	if len(active.Hosts) != 2 || active.Hosts[0] != "hp715-00" {
		t.Errorf("placement mismatch: %v", active.Hosts)
	}
	if len(got.Cluster.Hosts) != 25 || got.Cluster.Now != 30*time.Minute {
		t.Errorf("cluster snapshot mismatch: now %v, %d hosts", got.Cluster.Now, len(got.Cluster.Hosts))
	}
	// The restored snapshot must be bit-identical to the saved one.
	for i, h := range got.Cluster.Hosts {
		if h != sampleManifest().Cluster.Hosts[i] {
			t.Errorf("host %d snapshot differs after the JSON round trip", i)
		}
	}
}

// TestLoadIgnoresRetiredClosed: a manifest written before Closed was
// retired, with "Closed": false, still loads, because encoding/json
// skips an unknown key; every checkpoint is now written once Run has
// closed its farm, so farm.Restore closes the restored one anyway.
func TestLoadIgnoresRetiredClosed(t *testing.T) {
	dir := t.TempDir()
	want := sampleManifest()
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	rng := fmt.Sprintf(`"RNG": %d,`, want.RNG)
	old := strings.Replace(string(data), rng, rng+` "Closed": false,`, 1)
	if old == string(data) {
		t.Fatalf("manifest has no %s line:\n%s", rng, data)
	}
	if err := os.WriteFile(ManifestPath(dir), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("manifest with the retired Closed key: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("manifest with the retired Closed key loads as\n%+v\nwant\n%+v", got, want)
	}
}

// TestLoadRejectsCorruption: every corruption mode is reported with a
// descriptive error instead of producing a wrong manifest.
func TestLoadRejectsCorruption(t *testing.T) {
	missing := t.TempDir()
	if _, err := Load(missing); err == nil || !strings.Contains(err.Error(), "no checkpoint manifest") {
		t.Errorf("missing manifest: %v", err)
	}

	garbage := t.TempDir()
	os.WriteFile(ManifestPath(garbage), []byte("{ truncated"), 0o644)
	if _, err := Load(garbage); err == nil || !strings.Contains(err.Error(), "decode manifest") {
		t.Errorf("garbage manifest: %v", err)
	}

	skewed := t.TempDir()
	m := sampleManifest()
	if err := Save(skewed, m); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(ManifestPath(skewed))
	// Version 1 named gob rank dumps; this build writes flat ones, so an old
	// manifest is refused like any other skew.
	for _, v := range []int{99, 1} {
		skew := strings.Replace(string(data), fmt.Sprintf(`"Version": %d`, Version), fmt.Sprintf(`"Version": %d`, v), 1)
		os.WriteFile(ManifestPath(skewed), []byte(skew), 0o644)
		if _, err := Load(skewed); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", v)) {
			t.Errorf("version skew to %d: %v", v, err)
		}
	}
}

// TestValidateCatchesInconsistencies: structurally wrong manifests are
// rejected at save time too. Whether a record fits its job's lattice is
// farm.Restore's check (farm's TestRestoreRejectsCorruptCheckpoints).
func TestValidateCatchesInconsistencies(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"duplicate IDs", func(m *Manifest) { m.Jobs[0].ID = "active" }, "duplicate job ID"},
		{"bad phase", func(m *Manifest) { m.Jobs[0].Phase = "zombie" }, "unknown phase"},
		{"queued with placement", func(m *Manifest) { m.Jobs[0].Hosts = []string{"hp715-00"} }, "records a placement"},
		{"states without a generation", func(m *Manifest) { m.StatesDir = "" }, "no states directory"},
		{"malformed generation", func(m *Manifest) { m.StatesDir = "../escape" }, "malformed states directory"},
	}
	for _, tc := range cases {
		m := sampleManifest()
		tc.mutate(m)
		err := Save(dir, m)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestStatesRoundTripAndTearDetection: per-rank states round-trip through
// the sequencer, and a dump whose step disagrees with the manifest — the
// signature of a save torn by a crash — is rejected.
func TestStatesRoundTripAndTearDetection(t *testing.T) {
	dir := t.TempDir()
	gen := StatesDirName(1)
	seq := dump.NewSequencer(0)
	states := []*dump.State{sampleState(0, 80), sampleState(1, 79)}
	if err := SaveStates(dir, gen, "active", states, seq); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStates(dir, gen, "active", []int{80, 79})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Step != 80 || got[1].Step != 79 {
		t.Errorf("states mismatch: %+v", got)
	}

	if _, err := LoadStates(dir, gen, "active", []int{80, 99}); err == nil ||
		!strings.Contains(err.Error(), "torn checkpoint") {
		t.Errorf("step mismatch: %v", err)
	}
	if _, err := LoadStates(dir, gen, "active", []int{80, 79, 78}); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Errorf("missing rank: %v", err)
	}
	if _, err := LoadStates(dir, gen, "active", []int{80}); err == nil ||
		!strings.Contains(err.Error(), "expected 1") {
		t.Errorf("surplus rank: %v", err)
	}
	if _, err := LoadStates(dir, "wrong", "active", []int{80, 79}); err == nil ||
		!strings.Contains(err.Error(), "malformed states directory") {
		t.Errorf("malformed generation: %v", err)
	}
}

// TestSaveGenerationsSurviveTornSaves is the crash-during-checkpoint
// scenario: a half-written newer generation (dumped states but no
// manifest rename) must leave the committed checkpoint fully
// restorable, and Prune after the next successful save must drop every
// generation but the committed one.
func TestSaveGenerationsSurviveTornSaves(t *testing.T) {
	dir := t.TempDir()
	seq := dump.NewSequencer(0)

	// Save 1 commits: states + manifest.
	gen1 := StatesDirName(1)
	if err := SaveStates(dir, gen1, "active", []*dump.State{sampleState(0, 80), sampleState(1, 79)}, seq); err != nil {
		t.Fatal(err)
	}
	m := sampleManifest()
	if err := Save(dir, m); err != nil {
		t.Fatal(err)
	}

	// Save 2 tears: the states of a later step land on disk, the
	// coordinator dies before the manifest rename.
	gen2 := StatesDirName(2)
	if err := SaveStates(dir, gen2, "active", []*dump.State{sampleState(0, 95)}, seq); err != nil {
		t.Fatal(err)
	}

	// The committed checkpoint is untouched: the manifest still points
	// at generation 1, whose files load clean.
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.StatesDir != gen1 {
		t.Fatalf("manifest points at %q, want the committed %q", got.StatesDir, gen1)
	}
	if _, err := LoadStates(dir, got.StatesDir, "active", []int{80, 79}); err != nil {
		t.Fatalf("committed generation unloadable after a torn save: %v", err)
	}

	// The next successful save prunes both the superseded generation and
	// the torn one.
	gen3 := StatesDirName(3)
	if err := SaveStates(dir, gen3, "active", []*dump.State{sampleState(0, 99), sampleState(1, 99)}, seq); err != nil {
		t.Fatal(err)
	}
	m.StatesDir = gen3
	m.Jobs[1].StateSteps = []int{99, 99}
	if err := Save(dir, m); err != nil {
		t.Fatal(err)
	}
	if err := Prune(dir, gen3); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "states-*"))
	if len(matches) != 1 || filepath.Base(matches[0]) != gen3 {
		t.Errorf("after prune the directory holds %v, want only %s", matches, gen3)
	}
	if _, err := LoadStates(dir, gen3, "active", []int{99, 99}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckJobID: IDs that would escape the checkpoint directory are
// refused.
func TestCheckJobID(t *testing.T) {
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`} {
		if err := CheckJobID(bad); err == nil {
			t.Errorf("ID %q accepted", bad)
		}
	}
	if err := CheckJobID("duct-wide.2"); err != nil {
		t.Errorf("ordinary ID rejected: %v", err)
	}
}

// TestJobRecordKeys pins a job record's manifest keys: every saved
// checkpoint names its fields by these, so a field that nests (a tagged
// Accounting, say), is renamed or disappears orphans them. The record is
// marshalled with every field set, so no omitempty key goes missing.
func TestJobRecordKeys(t *testing.T) {
	want := []string{
		"Backfilled", "CurJX", "CurJY", "CurJZ", "DoneAt", "FinishAt", "FirstStart",
		"GridX", "GridY", "GridZ", "GrowRanks", "Hosts", "ID", "Imbalance", "JX", "JY", "JZ",
		"Method", "Migrations", "Phase", "PlacedAt", "Preempts", "Priority",
		"Remaining", "Repricings", "Resizes", "Served", "ShrinkRanks", "Side",
		"SpansX", "SpansY", "SpansZ", "Started", "StateSteps", "StepSec", "Steps",
		"Submit", "User", "Weight",
	}
	var jr JobRecord
	setAll(t, reflect.ValueOf(&jr).Elem())
	data, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if got := slices.Sorted(maps.Keys(keys)); !slices.Equal(got, want) {
		t.Errorf("a job record marshals to keys\n%q\nwant\n%q", got, want)
	}
}

// setAll gives every leaf of v a non-zero value.
func setAll(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setAll(t, v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		setAll(t, v.Index(0))
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Float64:
		v.SetFloat(1)
	default:
		t.Fatalf("setAll: no value for a %v field", v.Type())
	}
}
