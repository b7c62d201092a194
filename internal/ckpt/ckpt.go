// Package ckpt is the farm-level durability layer: a versioned,
// atomically written checkpoint of a whole multi-job scheduler, built on
// the paper's section-4.1 dump files. A checkpoint directory holds one
// MANIFEST.json — the coordinator's complete bookkeeping (virtual clock,
// RNG state, policy, queue order, per-job accounting, fair-share credit,
// and a full cluster snapshot) — plus, per job that has simulation
// state, the per-rank dump files written through internal/dump's codec
// and paced by its Sequencer, keeping the section-5.2 shared-file-server
// etiquette even for whole-farm saves.
//
// Every save writes its state files into a fresh generation directory
// (states-<seq>/<jobID>/dump-rankNNNN.dump, named by the manifest's
// StatesDir) and only then renames the manifest into place — the commit
// point. A coordinator that dies mid-save therefore leaves the previous
// checkpoint fully intact: the old manifest still points at the old,
// untouched generation, and the half-written new generation is inert
// until Prune removes it after the next successful save. On top of that,
// every rank dump carries the step it was saved at, and Load*/Validate
// reject version skew, missing or surplus rank files, and state files
// that disagree with the manifest with errors that say exactly what is
// wrong, rather than letting a restore build a wrong farm.
//
// The manifest is a format: this package checks its structure, not what
// a job record means. Whether a record's lattice, spans, placement and
// state count fit its job is the farm's question, answered by the job's
// own spec when the farm restores it.
package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/dump"
)

// Version is the manifest format version this build reads and writes.
// Bump it on any incompatible change to Manifest, the directory layout or
// the rank dump format (version 2: flat, checksummed dumps replaced gob);
// Load refuses other versions so a restore never misinterprets a
// checkpoint.
const Version = 2

// ManifestName is the manifest file inside a checkpoint directory.
const ManifestName = "MANIFEST.json"

// Job phases a checkpoint distinguishes. Order within a phase is
// preserved: the manifest lists jobs pending first, then the queue in
// queue order, then running, then finished in completion order.
const (
	PhasePending  = "pending"
	PhaseQueued   = "queued"
	PhaseRunning  = "running"
	PhaseFinished = "finished"
)

// JobRecord is the complete serialized state of one farm job: its spec,
// its scheduling phase, and every accounting field the coordinator tracks
// for it. Hosts (running jobs only) maps rank i to the name of the host
// serving it. StateSteps, when non-empty, records the integration step of
// each persisted rank dump — the loader cross-checks the dump files
// against it to catch torn checkpoints.
type JobRecord struct {
	ID     string
	Method string
	JX     int
	JY     int
	JZ     int `json:",omitempty"`
	Side   int
	Steps  int
	// GridX/Y/Z persist the spec's explicitly pinned global grid, zero
	// when the grid derives from the lattice.
	GridX int `json:",omitempty"`
	GridY int `json:",omitempty"`
	GridZ int `json:",omitempty"`

	Priority int           `json:",omitempty"`
	User     string        `json:",omitempty"`
	Weight   float64       `json:",omitempty"`
	Submit   time.Duration `json:",omitempty"`

	Phase string
	// Untagged, so encoding/json flattens the fields into the record.
	Accounting

	Hosts      []string `json:",omitempty"`
	StateSteps []int    `json:",omitempty"`

	// SpansX/Y/Z record the job's decomposition shape when it differs
	// from the uniform split: the per-axis interior node counts the
	// speed-weighted splitter assigned at first placement. Restore must
	// rebuild exactly these spans or the rank dumps no longer fit their
	// subregions. Absent spans mean the uniform decomposition.
	SpansX []int `json:",omitempty"`
	SpansY []int `json:",omitempty"`
	SpansZ []int `json:",omitempty"`
}

// Accounting is the scheduler's per-job bookkeeping: the one field set
// the running scheduler (embedded in its job state) and the manifest
// (embedded in JobRecord) share, so a checkpoint copies it whole.
type Accounting struct {
	// Remaining counts the steps left (fractional across preemptions);
	// run from PlacedAt at StepSec s per step, the job ends at FinishAt.
	Remaining  float64
	StepSec    float64       `json:",omitempty"`
	PlacedAt   time.Duration `json:",omitempty"`
	FinishAt   time.Duration `json:",omitempty"`
	Started    bool          `json:",omitempty"`
	Backfilled bool          `json:",omitempty"`
	FirstStart time.Duration
	DoneAt     time.Duration `json:",omitempty"`
	Served     time.Duration `json:",omitempty"`
	Preempts   int           `json:",omitempty"`
	Migrations int           `json:",omitempty"`
	Repricings int           `json:",omitempty"`

	// CurJX/CurJY/CurJZ record the job's current decomposition lattice
	// when resizes moved it off the spec's (all zero otherwise); the
	// rank dumps, placement and spans all follow it. Resizes/GrowRanks/
	// ShrinkRanks are the malleability accounting.
	CurJX       int `json:",omitempty"`
	CurJY       int `json:",omitempty"`
	CurJZ       int `json:",omitempty"`
	Resizes     int `json:",omitempty"`
	GrowRanks   int `json:",omitempty"`
	ShrinkRanks int `json:",omitempty"`
	// Imbalance is the job's load-imbalance ratio at its last pricing
	// (1.0 is perfect balance; zero if the job never ran).
	Imbalance float64 `json:",omitempty"`
}

// Manifest is one complete farm checkpoint. All job times are
// farm-relative virtual times (relative to Start, the absolute cluster
// time of the coordinator's Run entry), exactly as the scheduler accounts
// them, so a restored run continues on the same clock.
type Manifest struct {
	Version int

	// SavedAt is the farm-relative virtual time of the checkpoint; Start
	// is the absolute cluster time the checkpointed farm's Run began at.
	SavedAt time.Duration
	Start   time.Duration

	Policy   string
	Backfill string
	// RNG is the scheduler's complete generator state (the splitmix64
	// word), so the restored farm draws the same placement permutations.
	RNG uint64

	Reclaims int
	// EASYDegraded counts the scheduling rounds whose EASY backfill
	// shadow was incomputable (explicit fallback to aggressive mode).
	EASYDegraded int                      `json:",omitempty"`
	ServedByUser map[string]time.Duration `json:",omitempty"`

	// StatesDir names the generation directory (states-<seq>) holding
	// this save's per-rank dump files. Each save uses a fresh sequence
	// number, so a crash mid-save can never overwrite the generation the
	// committed manifest points at.
	StatesDir string `json:",omitempty"`

	Jobs    []JobRecord
	Cluster cluster.Snapshot
}

// StatesDirName returns the generation directory name for a save
// sequence number.
func StatesDirName(seq int) string { return fmt.Sprintf("states-%010d", seq) }

// ParseStatesDir extracts the save sequence number from a generation
// directory name.
func ParseStatesDir(name string) (int, error) {
	var seq int
	if _, err := fmt.Sscanf(name, "states-%d", &seq); err != nil || StatesDirName(seq) != name {
		return 0, fmt.Errorf("ckpt: malformed states directory name %q", name)
	}
	return seq, nil
}

// Validate checks the manifest's structure: its version, unique job
// IDs, known phases, no placement on a job that is not running, and a
// states directory that is named when a job records rank states and
// well-formed when named.
func (m *Manifest) Validate() error {
	if m.Version != Version {
		return fmt.Errorf("ckpt: manifest version %d, this build reads version %d", m.Version, Version)
	}
	seen := make(map[string]bool, len(m.Jobs))
	for i, jr := range m.Jobs {
		if jr.ID == "" {
			return fmt.Errorf("ckpt: job %d has no ID", i)
		}
		if seen[jr.ID] {
			return fmt.Errorf("ckpt: duplicate job ID %q", jr.ID)
		}
		seen[jr.ID] = true
		switch jr.Phase {
		case PhasePending, PhaseQueued, PhaseRunning, PhaseFinished:
		default:
			return fmt.Errorf("ckpt: job %s has unknown phase %q", jr.ID, jr.Phase)
		}
		if jr.Phase != PhaseRunning && len(jr.Hosts) != 0 {
			return fmt.Errorf("ckpt: %s job %s records a placement", jr.Phase, jr.ID)
		}
		if len(jr.StateSteps) > 0 && m.StatesDir == "" {
			return fmt.Errorf("ckpt: job %s records rank states but the manifest names no states directory", jr.ID)
		}
	}
	if m.StatesDir != "" {
		if _, err := ParseStatesDir(m.StatesDir); err != nil {
			return err
		}
	}
	return nil
}

// ManifestPath returns the manifest file of a checkpoint directory.
func ManifestPath(dir string) string { return filepath.Join(dir, ManifestName) }

// JobDir returns the directory holding one job's per-rank dump files
// within a save generation.
func JobDir(dir, statesDir, jobID string) string {
	return filepath.Join(dir, statesDir, jobID)
}

// CheckJobID rejects job IDs that cannot name a checkpoint subdirectory.
func CheckJobID(id string) error {
	if id == "" || id == "." || id == ".." || strings.ContainsAny(id, `/\`) {
		return fmt.Errorf("ckpt: job ID %q cannot name a checkpoint directory", id)
	}
	return nil
}

// Save writes the manifest atomically (temp file + rename), the commit
// point of a checkpoint: callers persist every job's rank dumps first, so
// a manifest that exists describes files that exist.
func Save(dir string, m *Manifest) error {
	m.Version = Version
	if err := m.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("ckpt: encode manifest: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-manifest-*")
	if err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("ckpt: save: %w", err)
	}
	// The rename overwrites the one manifest path — the previous
	// checkpoint's commit record. Flush the new bytes (and afterwards
	// the directory entry) to stable storage so a power failure cannot
	// persist the rename without the data, which would corrupt the only
	// manifest and lose both checkpoints.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("ckpt: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("ckpt: save: %w", err)
	}
	if err := os.Rename(name, ManifestPath(dir)); err != nil {
		os.Remove(name)
		return fmt.Errorf("ckpt: save: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		if err := d.Sync(); err != nil {
			d.Close()
			return fmt.Errorf("ckpt: save: %w", err)
		}
		d.Close()
	}
	return nil
}

// Load reads and validates a checkpoint manifest.
func Load(dir string) (*Manifest, error) {
	data, err := os.ReadFile(ManifestPath(dir))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("ckpt: %s holds no checkpoint manifest", dir)
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: load: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ckpt: decode manifest %s: %w", ManifestPath(dir), err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// SaveStates persists one job's per-rank states into a save generation
// through the sequencer (section 5.2: one save at a time, with a gap, so
// checkpoint I/O leaves the shared network and file server usable).
func SaveStates(dir, statesDir, jobID string, states []*dump.State, seq *dump.Sequencer) error {
	if _, err := ParseStatesDir(statesDir); err != nil {
		return err
	}
	if err := CheckJobID(jobID); err != nil {
		return err
	}
	if err := seq.SaveAll(JobDir(dir, statesDir, jobID), states); err != nil {
		return fmt.Errorf("ckpt: job %s: %w", jobID, err)
	}
	return nil
}

// LoadStates loads one job's per-rank states back from the manifest's
// generation and cross-checks each rank's saved integration step against
// the manifest record. A mismatch means the generation mixes files from
// different saves — which the generation scheme should make impossible,
// so treat it as corruption — and the whole checkpoint is rejected
// rather than restored into a farm whose bookkeeping disagrees with its
// simulations.
func LoadStates(dir, statesDir, jobID string, steps []int) ([]*dump.State, error) {
	if _, err := ParseStatesDir(statesDir); err != nil {
		return nil, err
	}
	if err := CheckJobID(jobID); err != nil {
		return nil, err
	}
	states, err := dump.LoadAll(JobDir(dir, statesDir, jobID), len(steps))
	if err != nil {
		return nil, fmt.Errorf("ckpt: job %s: %w", jobID, err)
	}
	for rank, st := range states {
		if st.Step != steps[rank] {
			return nil, fmt.Errorf(
				"ckpt: torn checkpoint: job %s rank %d dumped at step %d, manifest records step %d",
				jobID, rank, st.Step, steps[rank])
		}
	}
	return states, nil
}

// Prune removes every save generation except keep (the one the committed
// manifest names): stale generations from superseded saves and inert
// half-written ones from saves that never committed. Call it only after
// a successful Save.
func Prune(dir, keep string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "states-*"))
	if err != nil {
		return fmt.Errorf("ckpt: prune: %w", err)
	}
	for _, m := range matches {
		if filepath.Base(m) == keep {
			continue
		}
		if err := os.RemoveAll(m); err != nil {
			return fmt.Errorf("ckpt: prune: %w", err)
		}
	}
	return nil
}
