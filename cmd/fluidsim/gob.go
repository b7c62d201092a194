package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
)

// saveGob writes a value atomically (temp + rename), the temp file beside
// its target so the rename never crosses a filesystem.
func saveGob(path string, v interface{}) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-gob-*")
	if err != nil {
		return fmt.Errorf("save %s: %w", path, err)
	}
	name := tmp.Name()
	if err := gob.NewEncoder(tmp).Encode(v); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("save %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("save %s: %w", path, err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("save %s: %w", path, err)
	}
	return nil
}

// loadGob reads a value written by saveGob.
func loadGob(path string, v interface{}) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("load %s: %w", path, err)
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("load %s: %w", path, err)
	}
	return nil
}
