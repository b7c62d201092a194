package main

import (
	"os"
	"testing"
)

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
