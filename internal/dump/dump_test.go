package dump

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// decode parses a dump file's bytes with the decoder Load runs.
func decode(data []byte) (*State, error) {
	return decodeFrom(bytes.NewReader(data), int64(len(data)))
}

func sampleState(rank int) *State {
	return &State{
		Rank:   rank,
		Step:   42,
		Method: "lb2d",
		NX:     8, NY: 6, NZ: 1,
		Fields: map[string][]float64{
			"rho": {1, 2, 3},
			"vx":  {0.5, -0.5},
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := Path(dir, 3)
	want := sampleState(3)
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 3 || got.Step != 42 || got.Method != "lb2d" || got.NX != 8 {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Fields) != 2 || got.Fields["rho"][2] != 3 || got.Fields["vx"][1] != -0.5 {
		t.Errorf("fields mismatch: %v", got.Fields)
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	bad := []*State{
		{Rank: -1, Step: 0, NX: 1, NY: 1, NZ: 1, Fields: map[string][]float64{"a": nil}},
		{Rank: 0, Step: -2, NX: 1, NY: 1, NZ: 1, Fields: map[string][]float64{"a": nil}},
		{Rank: 0, Step: 0, NX: 0, NY: 1, NZ: 1, Fields: map[string][]float64{"a": nil}},
		{Rank: 0, Step: 0, NX: 1, NY: 1, NZ: 1, Fields: nil},
	}
	for i, st := range bad {
		if err := Save(Path(dir, i), st); err == nil {
			t.Errorf("invalid state #%d saved", i)
		}
	}
}

func TestLoadMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(Path(dir, 0)); err == nil {
		t.Error("loading a missing dump succeeded")
	}
	bad := filepath.Join(dir, "corrupt.dump")
	os.WriteFile(bad, []byte("not a dump file"), 0o644)
	if _, err := Load(bad); !errors.Is(err, ErrFormat) {
		t.Errorf("loading a corrupt dump: %v, want ErrFormat", err)
	}
}

// TestEncodeDecodeExact: a state with awkward values (negative zero, NaN
// payloads, infinities, the smallest subnormal, an empty field) comes back
// bit for bit, and encodes to the same bytes again.
func TestEncodeDecodeExact(t *testing.T) {
	st := sampleState(5)
	st.Epoch = -3
	st.Fields["f"] = []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8_dead_beef_0001),
		math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	st.Fields["empty"] = []float64{}
	data := encode(st)
	got, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != st.Rank || got.Step != st.Step || got.Epoch != st.Epoch || got.Method != st.Method ||
		got.NX != st.NX || got.NY != st.NY || got.NZ != st.NZ || len(got.Fields) != len(st.Fields) {
		t.Fatalf("header: got %+v, want %+v", got, st)
	}
	for name, want := range st.Fields {
		vals := got.Fields[name]
		if len(vals) != len(want) {
			t.Fatalf("field %q: %d values, want %d", name, len(vals), len(want))
		}
		for i := range want {
			if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
				t.Errorf("field %q[%d] = %#x, want %#x", name, i, math.Float64bits(vals[i]), math.Float64bits(want[i]))
			}
		}
	}
	if again := encode(got); !bytes.Equal(again, data) {
		t.Error("re-encoding the decoded state changed the bytes")
	}
}

// TestDecodeRejectsDamage: every proper prefix of a dump file and every
// single-bit flip in it is an ErrFormat, never a state.
func TestDecodeRejectsDamage(t *testing.T) {
	data := encode(sampleState(1))
	for n := 0; n < len(data); n++ {
		if _, err := decode(data[:n]); !errors.Is(err, ErrFormat) {
			t.Fatalf("%d-byte prefix of %d: %v, want ErrFormat", n, len(data), err)
		}
	}
	flipped := make([]byte, len(data))
	for bit := 0; bit < 8*len(data); bit++ {
		copy(flipped, data)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, err := decode(flipped); !errors.Is(err, ErrFormat) {
			t.Fatalf("bit %d flipped: %v, want ErrFormat", bit, err)
		}
	}
}

// TestDecodeBoundsAllocation: a header whose one field claims 2^40 values,
// followed by a checksum and the end of the file, is refused before
// anything is allocated for the values: a file of about a hundred bytes costs Load well
// under 64 KB.
func TestDecodeBoundsAllocation(t *testing.T) {
	st := sampleState(0)
	st.Fields = map[string][]float64{"rho": nil}
	data := encode(st)
	data = data[:len(data)-12] // the field's zero count and the checksum
	data = binary.LittleEndian.AppendUint64(data, 1<<40)
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)))
	path := filepath.Join(t.TempDir(), "huge.dump")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(path)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFormat) {
		t.Errorf("a field of 2^40 values in %d bytes: %v, want ErrFormat", len(data), err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("a %d-byte file claiming 2^40 values: %d bytes allocated", len(data), grew)
	if grew >= 64<<10 {
		t.Errorf("Load allocated %d bytes, want < 64 KB", grew)
	}
}

// multiBuffer is a state whose file spans several of Load's read buffers:
// a name longer than one, and fields that start and end inside them.
func multiBuffer() *State {
	st := sampleState(2)
	st.Fields["rho"] = make([]float64, 3*readBufBytes/8+5)
	for i := range st.Fields["rho"] {
		st.Fields["rho"][i] = math.Float64frombits(0x3ff0_0000_0000_0000 + uint64(i)*0x9e37_79b9)
	}
	st.Fields[strings.Repeat("n", readBufBytes+3)] = []float64{math.Inf(1), -0.0}
	return st
}

// TestLoadMatchesDecodeAcrossBuffers: Load of a rank file whose name and
// fields span several read buffers returns the state decode returns from
// the file's bytes, bit for bit.
func TestLoadMatchesDecodeAcrossBuffers(t *testing.T) {
	path := Path(t.TempDir(), 2)
	if err := Save(path, multiBuffer()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 3*readBufBytes {
		t.Fatalf("the file is %d bytes, want several %d-byte buffers", len(data), readBufBytes)
	}
	if !bytes.Equal(encode(got), encode(want)) || !bytes.Equal(encode(got), data) {
		t.Error("Load and decode of the same file differ")
	}
}

// TestLoadRefusesCutAndResizedFiles: a file cut off in the middle of a
// field is an ErrFormat, and so is a reader that ends before the size Stat
// gave, or holds more.
func TestLoadRefusesCutAndResizedFiles(t *testing.T) {
	data := encode(multiBuffer())
	path := filepath.Join(t.TempDir(), "cut.dump")
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrFormat) {
		t.Errorf("a file cut in the middle of a field: %v, want ErrFormat", err)
	}
	for _, read := range [][]byte{data[:len(data)-8], append(data[:len(data):len(data)], 0)} {
		if _, err := decodeFrom(bytes.NewReader(read), int64(len(data))); !errors.Is(err, ErrFormat) {
			t.Errorf("%d bytes read as a file of %d: %v, want ErrFormat", len(read), len(data), err)
		}
	}
}

// FuzzDecode: any bytes decode to an ErrFormat or to a State that encodes
// back to exactly those bytes. The committed corpus (testdata/fuzz) holds
// a rank file of a 2x2x2 LB3D job and damaged copies of it, a file whose
// field spans two read buffers, and a file in the gob encoding dumps used
// before this layout.
func FuzzDecode(f *testing.F) {
	f.Add(encode(sampleState(0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decode(data)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("error %v is not an ErrFormat", err)
			}
			return
		}
		if again := encode(st); !bytes.Equal(again, data) {
			t.Fatalf("decoded %d bytes into a state that encodes to %d other bytes", len(data), len(again))
		}
	})
}

func TestSaveIsAtomic(t *testing.T) {
	// After Save, no temp files remain and the target parses.
	dir := t.TempDir()
	if err := Save(Path(dir, 0), sampleState(0)); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name()[0] == '.' {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestSaveAllLoadAll(t *testing.T) {
	dir := t.TempDir()
	seq := NewSequencer(0)
	states := []*State{sampleState(0), sampleState(1), sampleState(2)}
	for i, st := range states {
		st.Rank = i
	}
	if err := seq.SaveAll(dir, states); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAll(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range got {
		if st.Rank != i {
			t.Errorf("slot %d holds rank %d", i, st.Rank)
		}
	}
	if _, err := LoadAll(dir, 4); err == nil {
		t.Error("LoadAll with a missing rank succeeded")
	}
}

// TestLoadAllReportsMissingRanks: a partial checkpoint names every absent
// rank, not just the first open failure, so an operator sees at a glance
// how torn the directory is.
func TestLoadAllReportsMissingRanks(t *testing.T) {
	dir := t.TempDir()
	seq := NewSequencer(0)
	states := []*State{sampleState(0), sampleState(1), sampleState(2), sampleState(3)}
	for i, st := range states {
		st.Rank = i
	}
	if err := seq.SaveAll(dir, states); err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{1, 3} {
		if err := os.Remove(Path(dir, rank)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadAll(dir, 4)
	if err == nil {
		t.Fatal("partial checkpoint loaded")
	}
	for _, want := range []string{"[1 3]", "2 of 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestLoadAllRejectsExtraRanks: a directory with more rank dumps than the
// manifest claims is a shape disagreement, not a smaller simulation.
func TestLoadAllRejectsExtraRanks(t *testing.T) {
	dir := t.TempDir()
	seq := NewSequencer(0)
	states := []*State{sampleState(0), sampleState(1), sampleState(2)}
	for i, st := range states {
		st.Rank = i
	}
	if err := seq.SaveAll(dir, states); err != nil {
		t.Fatal(err)
	}
	_, err := LoadAll(dir, 2)
	if err == nil {
		t.Fatal("LoadAll accepted a directory with an extra rank dump")
	}
	if !strings.Contains(err.Error(), "3 rank dumps, expected 2") {
		t.Errorf("error %q does not describe the rank-count disagreement", err)
	}
}

// savedRanks writes sample dumps of ranks 0..n-1 into a fresh directory.
func savedRanks(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	for rank := range n {
		if err := Save(Path(dir, rank), sampleState(rank)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadAllReportsLowestDamagedRank: of two damaged ranks, LoadAll
// reports the lower one on every call, although the higher one fails
// first: its file is a few bytes without the magic, while the lower one is
// a large file whose checksum fails only once all of it is read.
func TestLoadAllReportsLowestDamagedRank(t *testing.T) {
	const ranks = 8
	dir := savedRanks(t, ranks)
	big := sampleState(2)
	big.Fields["rho"] = make([]float64, 1<<17)
	if err := Save(Path(dir, 2), big); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(Path(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(Path(dir, 2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(Path(dir, 6), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	for range 20 {
		_, err := LoadAll(dir, ranks)
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), Path(dir, 2)) {
			t.Fatalf("LoadAll over damaged ranks 2 and 6: %v, want rank 2's ErrFormat", err)
		}
	}
}

// TestLoadAllListsEveryMissingRank: with more ranks than files are read at
// once, every absent rank is still listed, in rank order.
func TestLoadAllListsEveryMissingRank(t *testing.T) {
	ranks := 2*runtime.GOMAXPROCS(0) + 3
	dir := savedRanks(t, ranks)
	gone := []int{0, ranks / 2, ranks - 1}
	for _, rank := range gone {
		if err := os.Remove(Path(dir, rank)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadAll(dir, ranks)
	want := fmt.Sprintf("ranks %v missing (%d of %d present)", gone, ranks-len(gone), ranks)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadAll: %v, want an error containing %q", err, want)
	}
}

// TestLoadAllRefusesExtraBeforeReading: a directory with one rank file too
// many is refused for its count, before any file is read, so a damaged
// rank 0 does not decide the error.
func TestLoadAllRefusesExtraBeforeReading(t *testing.T) {
	dir := savedRanks(t, 3)
	if err := os.WriteFile(Path(dir, 0), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadAll(dir, 2)
	if err == nil || errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "3 rank dumps, expected 2") {
		t.Fatalf("LoadAll of 2 ranks over 3 files, rank 0 damaged: %v, want the count refused", err)
	}
}

func TestSequencerSerializesSaves(t *testing.T) {
	// Two goroutines contend for the token; the gap forces measurable
	// separation between their save windows.
	seq := NewSequencer(20 * time.Millisecond)
	type window struct{ start, end time.Time }
	ch := make(chan window, 2)
	for i := 0; i < 2; i++ {
		go func() {
			seq.Acquire()
			w := window{start: time.Now()}
			time.Sleep(5 * time.Millisecond) // the "save"
			w.end = time.Now()
			seq.Release()
			ch <- w
		}()
	}
	a, b := <-ch, <-ch
	if a.start.After(b.start) {
		a, b = b, a
	}
	if b.start.Before(a.end) {
		t.Error("save windows overlap; sequencer failed to serialize")
	}
	if gap := b.start.Sub(a.end); gap < 15*time.Millisecond {
		t.Errorf("inter-save gap %v, want >= ~20ms", gap)
	}
}
