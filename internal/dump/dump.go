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
//
// A dump file is flat. Every integer is a little-endian uint64 (an int
// as its two's complement), and a string is its byte length then its bytes:
//
//	magic "DUMPFILE", version
//	rank, step, epoch, method, NX, NY, NZ, field count
//	per field, in name order: name, value count, values as math.Float64bits
//	CRC-32C (Castagnoli) of every byte before it, as a little-endian uint32
package dump

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// magic and version open every dump file.
const magic, version = "DUMPFILE", 1

// ErrFormat is returned (wrapped, saying what is wrong) by Load for any
// file that is not a well-formed dump. Callers branch with errors.Is.
var ErrFormat = errors.New("dump: malformed dump file")

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

// Path returns the canonical dump file name for a rank inside dir.
func Path(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("dump-rank%04d.dump", rank))
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
	_, err = tmp.Write(encode(st))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("dump: save: %w", err)
	}
	return nil
}

// Load decodes a dump file as it reads it, through a small buffer; a
// malformed file is an ErrFormat, as is one whose size changes under it.
func Load(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dump: load: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("dump: load: %w", err)
	}
	st, err := decodeFrom(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("dump: %s: %w", path, err)
	}
	return st, nil
}

// encode returns a state's file bytes, in one buffer of the exact size.
func encode(st *State) []byte {
	names := slices.Sorted(maps.Keys(st.Fields))
	size := len(magic) + 9*8 + len(st.Method) + 4
	for _, name := range names {
		size += 2*8 + len(name) + 8*len(st.Fields[name])
	}
	b := make([]byte, 0, size)
	b = append(b, magic...)
	for _, v := range [...]int{version, st.Rank, st.Step, st.Epoch, len(st.Method)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = append(b, st.Method...)
	for _, v := range [...]int{st.NX, st.NY, st.NZ, len(names)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, name := range names {
		vals := st.Fields[name]
		b = binary.LittleEndian.AppendUint64(b, uint64(len(name)))
		b = append(b, name...)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(vals)))
		at := len(b)
		b = b[:at+8*len(vals)]
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[at+8*i:], math.Float64bits(v))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// readBufBytes bounds the buffer Load decodes a file through.
const readBufBytes = 32 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// decodeFrom parses a dump file of size bytes from r, checksumming the
// bytes as they go by. Every length is checked against the bytes left
// before the checksum before anything is allocated for it, so a file
// cannot make decodeFrom allocate more than its own size and its buffer.
// A reader that ends before size bytes, or holds more, is an ErrFormat.
func decodeFrom(r io.Reader, size int64) (*State, error) {
	left := size - 4 // the bytes before the checksum not yet claimed
	if left < int64(len(magic)) {
		return nil, fmt.Errorf("%w: no %q magic", ErrFormat, magic)
	}
	br := bufio.NewReaderSize(r, int(min(size, readBufBytes)))
	var err error // the first failure, which fails every later claim
	var crc uint32
	claim := func(n uint64) bool { // takes n bytes off left, if they are there
		if err == nil && n > uint64(left) {
			err = fmt.Errorf("%w: a length runs past the end of the file", ErrFormat)
		}
		left -= int64(n)
		return err == nil
	}
	read := func(n uint64, use func(b []byte)) { // the next n claimed bytes, a buffer at a time
		for k := 0; n > 0 && err == nil; n -= uint64(k) {
			k = int(min(n, readBufBytes)) // a multiple of 8
			var b []byte
			if b, err = br.Peek(k); err == nil {
				crc = crc32.Update(crc, castagnoli, b)
				use(b)
				_, _ = br.Discard(k) // cannot fail: Peek has buffered these bytes
			}
		}
	}
	u64 := func() (v uint64) {
		if claim(8) {
			read(8, func(b []byte) { v = binary.LittleEndian.Uint64(b) })
		}
		return v
	}
	num := func() int { return int(int64(u64())) }
	str := func() string { // built in place: a name is copied once
		var s strings.Builder
		if n := u64(); claim(n) {
			s.Grow(int(n))
			read(n, func(p []byte) { s.Write(p) })
		}
		return s.String()
	}
	if u64() != binary.LittleEndian.Uint64([]byte(magic)) {
		return nil, fmt.Errorf("%w: no %q magic", ErrFormat, magic)
	}
	if v := u64(); err == nil && v != version {
		return nil, fmt.Errorf("%w: layout version %d, this build reads %d", ErrFormat, v, version)
	}
	// A struct literal's reads run in the order written: the file's order.
	st := &State{Rank: num(), Step: num(), Epoch: num(), Method: str(), NX: num(), NY: num(), NZ: num(),
		Fields: map[string][]float64{}}
	prev := ""
	for i, fields := uint64(0), u64(); i < fields && err == nil; i++ {
		name, n := str(), u64()
		if err == nil && i > 0 && name <= prev {
			return nil, fmt.Errorf("%w: field %q after %q, not in name order", ErrFormat, name, prev)
		}
		if !claim(8 * min(n, math.MaxUint64/8)) {
			break
		}
		vals := make([]float64, 0, n)
		read(8*n, func(b []byte) {
			for ; len(b) > 0; b = b[8:] {
				vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
		})
		st.Fields[name], prev = vals, name
	}
	var sum []byte
	if err == nil && left == 0 {
		sum, err = br.Peek(4)
	}
	switch {
	case err == io.EOF:
		return nil, fmt.Errorf("%w: the file ends short of its %d bytes", ErrFormat, size)
	case err != nil:
		return nil, err
	case left != 0:
		return nil, fmt.Errorf("%w: %d bytes after the last field", ErrFormat, left)
	case binary.LittleEndian.Uint32(sum) != crc:
		return nil, fmt.Errorf("%w: checksum mismatch", ErrFormat)
	}
	_, _ = br.Discard(4)
	if _, err := br.Peek(1); err != io.EOF {
		return nil, cmp.Or(err, fmt.Errorf("%w: the file runs past its %d bytes", ErrFormat, size))
	}
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFormat, err)
	}
	return st, nil
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

// LoadAll loads the dumps of ranks 0..p-1 from dir, one goroutine a rank
// and at most GOMAXPROCS files read at once. A partial checkpoint is
// reported by listing every missing rank (not just the first open
// failure), and a directory holding more rank dumps than the caller's
// manifest expects is rejected before any file is read — either way the
// caller learns the checkpoint disagrees with what it believes about the
// simulation instead of restarting a wrong one. Of several damaged ranks,
// the lowest is reported, however the reads interleave.
func LoadAll(dir string, p int) ([]*State, error) {
	extra, err := filepath.Glob(filepath.Join(dir, "dump-rank*.dump"))
	if err != nil {
		return nil, fmt.Errorf("dump: scan %s: %w", dir, err)
	}
	if len(extra) > p {
		return nil, fmt.Errorf("dump: %s holds %d rank dumps, expected %d", dir, len(extra), p)
	}
	out, errs := make([]*State, p), make([]error, p)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for rank := range p {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[rank], errs[rank] = Load(Path(dir, rank))
			<-slots
		}()
	}
	wg.Wait()
	var missing []int
	for rank, err := range errs {
		if errors.Is(err, os.ErrNotExist) {
			missing = append(missing, rank)
			continue
		}
		if err != nil {
			return nil, err
		}
		if out[rank].Rank != rank {
			return nil, fmt.Errorf("dump: file %s holds rank %d", Path(dir, rank), out[rank].Rank)
		}
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
