// Package dump implements the "dump files" of section 4.1: serialized
// subregion states that contain all the information a workstation needs to
// participate in a distributed computation. The decomposition program
// writes one dump file per subregion; a migrating process saves its state
// into a dump file and is restarted from it on a free host; the monitoring
// program restarts a failed simulation from the automatically saved dumps.
//
// The package also provides the staggered saving discipline of section 5.2:
// parallel processes save their state one after the other, with time gaps
// in between, so that simultaneous multi-megabyte writes cannot saturate
// the shared network and file server.
package dump

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// State is the complete integration state of one subregion. Field arrays
// are raw storage including ghost layers, so a restore reproduces the
// worker bit-for-bit.
type State struct {
	Rank   int
	Step   int
	Method string // "fd2d", "lb2d", "fd3d", "lb3d"
	Epoch  int    // communication epoch at save time

	NX, NY, NZ int // interior sizes (NZ = 1 in 2D)

	Fields map[string][]float64
}

// Validate performs basic consistency checks after a load.
func (st *State) Validate() error {
	if st.Rank < 0 {
		return fmt.Errorf("dump: negative rank %d", st.Rank)
	}
	if st.Step < 0 {
		return fmt.Errorf("dump: negative step %d", st.Step)
	}
	if st.NX <= 0 || st.NY <= 0 || st.NZ <= 0 {
		return fmt.Errorf("dump: bad geometry %dx%dx%d", st.NX, st.NY, st.NZ)
	}
	if len(st.Fields) == 0 {
		return fmt.Errorf("dump: no fields")
	}
	return nil
}

// CopyFields returns deep copies of a solver's arrays (raw storage, ghosts
// included) keyed by their names: the Fields of its dump.
func CopyFields(names []string, arrays [][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(names))
	for i, name := range names {
		out[name] = append([]float64(nil), arrays[i]...)
	}
	return out
}

// RestoreFields reloads every named array from a dump's Fields, bit for
// bit; a missing field or one of the wrong length is an error.
func RestoreFields(names []string, arrays [][]float64, fields map[string][]float64) error {
	for i, name := range names {
		src, ok := fields[name]
		if !ok {
			return fmt.Errorf("dump: missing field %q", name)
		}
		if len(src) != len(arrays[i]) {
			return fmt.Errorf("dump: field %q has %d values, want %d", name, len(src), len(arrays[i]))
		}
		copy(arrays[i], src)
	}
	return nil
}

// Path returns the canonical dump file name for a rank inside dir.
func Path(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("dump-rank%04d.gob", rank))
}

// Save writes the state atomically (temp file + rename), so a monitoring
// program never restarts from a torn dump.
func Save(path string, st *State) error {
	if err := st.Validate(); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dump: save: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-dump-*")
	if err != nil {
		return fmt.Errorf("dump: save: %w", err)
	}
	name := tmp.Name()
	enc := gob.NewEncoder(tmp)
	if err := enc.Encode(st); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("dump: encode: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("dump: save: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("dump: save: %w", err)
	}
	return nil
}

// Load reads and validates a dump file.
func Load(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dump: load: %w", err)
	}
	defer f.Close()
	var st State
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("dump: decode %s: %w", path, err)
	}
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("dump: %s: %w", path, err)
	}
	return &st, nil
}

// Sequencer serializes the saving of parallel states (section 5.2). Ranks
// acquire the save token in turn; Gap is the pause inserted between
// consecutive saves so other programs can use the network and file system.
// A saving operation that would take 30 seconds and monopolize the shared
// resources now takes 60-90 seconds but leaves free time slots.
type Sequencer struct {
	Gap   time.Duration
	token chan struct{}
}

// NewSequencer creates a sequencer with the given inter-save gap.
func NewSequencer(gap time.Duration) *Sequencer {
	s := &Sequencer{Gap: gap, token: make(chan struct{}, 1)}
	s.token <- struct{}{}
	return s
}

// Acquire blocks until it is this saver's turn.
func (s *Sequencer) Acquire() {
	<-s.token
}

// Release waits the configured gap and passes the token on.
func (s *Sequencer) Release() {
	if s.Gap > 0 {
		time.Sleep(s.Gap)
	}
	s.token <- struct{}{}
}

// SaveAll saves a set of states through the sequencer in rank order,
// returning the first error. It is the orderly whole-simulation checkpoint
// the monitoring program performs every 10-20 minutes.
func (s *Sequencer) SaveAll(dir string, states []*State) error {
	for _, st := range states {
		s.Acquire()
		err := Save(Path(dir, st.Rank), st)
		s.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadAll loads the dumps of ranks 0..p-1 from dir. A partial checkpoint
// is reported by listing every missing rank (not just the first open
// failure), and a directory holding more rank dumps than the caller's
// manifest expects is rejected — either way the caller learns the
// checkpoint disagrees with what it believes about the simulation instead
// of restarting a wrong one.
func LoadAll(dir string, p int) ([]*State, error) {
	extra, err := filepath.Glob(filepath.Join(dir, "dump-rank*.gob"))
	if err != nil {
		return nil, fmt.Errorf("dump: scan %s: %w", dir, err)
	}
	if len(extra) > p {
		return nil, fmt.Errorf("dump: %s holds %d rank dumps, expected %d", dir, len(extra), p)
	}
	out := make([]*State, p)
	var missing []int
	for rank := 0; rank < p; rank++ {
		st, err := Load(Path(dir, rank))
		if errors.Is(err, os.ErrNotExist) {
			missing = append(missing, rank)
			continue
		}
		if err != nil {
			return nil, err
		}
		if st.Rank != rank {
			return nil, fmt.Errorf("dump: file %s holds rank %d", Path(dir, rank), st.Rank)
		}
		out[rank] = st
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("dump: %s is a partial checkpoint: ranks %v missing (%d of %d present)",
			dir, missing, p-len(missing), p)
	}
	return out, nil
}

// ErrMixedSteps is returned (wrapped, naming both steps) by CommonStep for
// a dump set whose ranks do not all stand at one step. Callers branch with
// errors.Is.
var ErrMixedSteps = errors.New("dump: dumps at different steps")

// CommonStep returns the step every dump of a set stands at. A set at
// mixed steps — a rank-by-rank save killed part-way leaves one — cannot be
// restarted: the rank that is behind would wait for a message its
// neighbour, already past that step, will never send.
func CommonStep(states []*State) (int, error) {
	if len(states) == 0 {
		return 0, fmt.Errorf("dump: no dumps")
	}
	first := states[0]
	for _, st := range states[1:] {
		if st.Step != first.Step {
			return 0, fmt.Errorf("%w (rank %d at step %d, rank %d at step %d)",
				ErrMixedSteps, first.Rank, first.Step, st.Rank, st.Step)
		}
	}
	return first.Step, nil
}
