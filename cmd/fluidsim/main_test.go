package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dump"
	"repro/internal/leakcheck"
	"repro/internal/viz"
)

// TestMain fails the package's tests when a goroutine outlives them.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestBuildConfigRejectsBadSizes: a non-positive grid extent, from the init
// flags or from a problem.gob written by hand, is an error from
// buildConfig, not a panic in the mask builder.
func TestBuildConfigRejectsBadSizes(t *testing.T) {
	for _, geom := range []string{"channel", "fluepipe", "fluepipe2"} {
		for _, size := range [][2]int{{0, 125}, {200, 0}, {-1, 125}, {200, -7}, {0, 0}} {
			cf := configFile{Method: "lb", Geom: geom, NX: size[0], NY: size[1], JX: 2, JY: 2}
			if cfg, err := buildConfig(cf); err == nil {
				t.Errorf("%s %dx%d: built %v, want an error", geom, size[0], size[1], cfg)
			}
		}
	}
	// The same sizes read back from a problem file, as run does.
	dir := t.TempDir()
	if err := saveGob(configPath(dir), configFile{Method: "fd", Geom: "channel", NX: -4, NY: 16, JX: 1, JY: 1}); err != nil {
		t.Fatal(err)
	}
	var cf configFile
	if err := loadGob(configPath(dir), &cf); err != nil {
		t.Fatal(err)
	}
	if _, err := buildConfig(cf); err == nil {
		t.Error("problem file with NX = -4: want an error")
	}
	// A valid size still builds.
	cf = configFile{Method: "lb", Geom: "channel", NX: 24, NY: 12, JX: 2, JY: 1}
	if _, err := buildConfig(cf); err != nil {
		t.Errorf("channel 24x12: %v", err)
	}
}

// TestSaveGobWritesBesideTarget: the temp file is made in the target's
// directory, not the working one. The working directory here is removed
// before the save, so a temp file made there fails with ENOENT (root
// included), and the target directory is left holding only the target.
func TestSaveGobWritesBesideTarget(t *testing.T) {
	gone := t.TempDir()
	t.Chdir(gone)
	if err := os.Remove(gone); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := saveGob(configPath(dir), configFile{Method: "lb", Geom: "channel", NX: 24, NY: 12, JX: 2, JY: 1}); err != nil {
		t.Fatalf("save with the working directory removed: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "problem.gob" {
		t.Errorf("%s holds %v, want only problem.gob", dir, entries)
	}
}

// TestInitRunStatus drives the commands in process on a small flue pipe:
// run writes the PGM that core.RunParallel2D gives on the same problem,
// a second run continues from the saved dumps over TCP to the bits of one
// longer run, and status lists every rank at the final step.
func TestInitRunStatus(t *testing.T) {
	dir := t.TempDir()
	if err := cmdInit([]string{"-dir", dir, "-geom", "fluepipe", "-nx", "40", "-ny", "25", "-jx", "2", "-jy", "2"}); err != nil {
		t.Fatal(err)
	}
	_, cfg, err := loadProblem(dir)
	if err != nil {
		t.Fatal(err)
	}
	reference := func(steps int) *core.Result2D {
		res, err := core.RunParallel2D(cfg, steps, core.HubFactory())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	samePGM := func(res *core.Result2D) {
		t.Helper()
		var want bytes.Buffer
		vort := res.Vorticity()
		lo, hi := viz.SymmetricRange(vort)
		if err := viz.WritePGM(&want, res.NX, res.NY, vort, lo, hi); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "vorticity.pgm"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("vorticity.pgm after %d steps differs from core.RunParallel2D's", res.Steps)
		}
	}

	if err := cmdRun([]string{"-dir", dir, "-steps", "20"}); err != nil {
		t.Fatal(err)
	}
	samePGM(reference(20))

	if err := cmdRun([]string{"-dir", dir, "-steps", "10", "-tcp"}); err != nil {
		t.Fatal(err)
	}
	samePGM(reference(30))
	states, err := dump.LoadAll(dir, cfg.D.P())
	if err != nil {
		t.Fatal(err)
	}
	_, progs, err := core.RunSequential2D(cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	for rank, st := range states {
		want := progs[rank].DumpState(30, 0)
		for name, field := range want.Fields {
			if !slices.EqualFunc(st.Fields[name], field, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Errorf("rank %d field %s: 20 + 10 steps through the saved dumps differ from one 30-step run", rank, name)
			}
		}
	}

	var out strings.Builder
	if err := cmdStatus([]string{"-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for rank := range cfg.D.P() {
		if line := fmt.Sprintf("rank %3d: step %6d,", rank, 30); !strings.Contains(out.String(), line) {
			t.Errorf("status lacks %q:\n%s", line, out.String())
		}
	}
}

// TestRunRefusesNegativeSteps: run -steps -1 is an error naming the flag,
// and no rank file is rewritten; run -steps 0 succeeds.
func TestRunRefusesNegativeSteps(t *testing.T) {
	dir := t.TempDir()
	if err := cmdInit([]string{"-dir", dir, "-geom", "channel", "-nx", "24", "-ny", "12", "-jx", "2", "-jy", "2"}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(dump.Path(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-dir", dir, "-steps", "-1"}); err == nil || !strings.Contains(err.Error(), "-steps") {
		t.Fatalf("run -steps -1 returned %v, want an error naming -steps", err)
	}
	if after, err := os.ReadFile(dump.Path(dir, 0)); err != nil || !bytes.Equal(after, before) {
		t.Errorf("run -steps -1 changed rank 0's dump (%v)", err)
	}
	if err := cmdRun([]string{"-dir", dir, "-steps", "0"}); err != nil {
		t.Errorf("run -steps 0: %v", err)
	}
}

// TestStatusRejectsDamagedSet: a rank file that does not decode, or one
// that is missing, is an error naming it, not the end of the set.
func TestStatusRejectsDamagedSet(t *testing.T) {
	initSet := func() string {
		dir := t.TempDir()
		if err := cmdInit([]string{"-dir", dir, "-geom", "channel", "-nx", "24", "-ny", "12", "-jx", "2", "-jy", "2"}); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	dir := initSet()
	if err := os.WriteFile(dump.Path(dir, 1), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdStatus([]string{"-dir", dir}, io.Discard)
	if !errors.Is(err, dump.ErrFormat) || !strings.Contains(fmt.Sprint(err), "dump-rank0001") {
		t.Errorf("rank 1 holds garbage: status returned %v, want a dump.ErrFormat naming its file", err)
	}

	dir = initSet()
	if err := os.Remove(dump.Path(dir, 2)); err != nil {
		t.Fatal(err)
	}
	err = cmdStatus([]string{"-dir", dir}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "ranks [2] missing") {
		t.Errorf("rank 2's file removed: status returned %v, want an error naming rank 2", err)
	}
}
