package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
)

// The facts layer is what turns detlint's single-file AST checks into
// cross-package dataflow. Each analyzer may export one package fact — a
// JSON-serializable summary of the package it just analyzed (lockorder's
// call edges and lock acquisition orders) — and read the
// facts of the packages analyzed before it. Packages are walked
// dependency-first through one FactStore, sealed after each, so
// every dependency's facts are in view when a package is analyzed:
// TestTreeIsClean walks the module in `go list -deps` order, and
// analysistest walks its fixture list. Facts are stored marshaled, so
// each reader decodes its own copy.

// packageFacts maps analyzer name -> that analyzer's fact blob for one
// package.
type packageFacts map[string]json.RawMessage

// A FactStore carries the facts visible to one package's analysis run:
// everything sealed by earlier runs, plus what the current run exports.
type FactStore struct {
	// imported maps a sealed package's import path -> its facts.
	imported map[string]packageFacts
	// exported holds the current package's facts, by analyzer.
	exported packageFacts
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		imported: make(map[string]packageFacts),
		exported: make(packageFacts),
	}
}

// Seal moves the current package's exported facts into the imported
// set under pkgPath and resets the export slot, so one store can walk
// a dependency chain package by package. A package that exported
// nothing leaves no entry.
func (s *FactStore) Seal(pkgPath string) {
	if len(s.exported) > 0 {
		s.imported[pkgPath] = s.exported
	}
	s.exported = make(packageFacts)
}

// ExportFact records v (JSON-marshaled) as the analyzer's package fact
// for the current package.
func (p *Pass) ExportFact(v any) error {
	if p.facts == nil {
		return nil // fact-free harness (single-package tests)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%s: exporting fact: %w", p.Analyzer.Name, err)
	}
	p.facts.exported[p.Analyzer.Name] = data
	return nil
}

// ImportFact decodes the fact the analyzer exported for the sealed
// package pkgPath into v. It returns false when that package exported no fact
// for this analyzer.
func (p *Pass) ImportFact(pkgPath string, v any) (bool, error) {
	if p.facts == nil {
		return false, nil
	}
	blob, ok := p.facts.imported[pkgPath][p.Analyzer.Name]
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return false, fmt.Errorf("%s: fact from %s: %w", p.Analyzer.Name, pkgPath, err)
	}
	return true, nil
}

// FactPackages returns, sorted, the sealed packages that exported a
// fact for this analyzer: every dependency, and whatever else was
// analyzed first. Sorting keeps every traversal of
// the fact set deterministic — detlint holds itself to its own
// invariants.
func (p *Pass) FactPackages() []string {
	if p.facts == nil {
		return nil
	}
	var paths []string
	for path, pf := range p.facts.imported {
		if _, ok := pf[p.Analyzer.Name]; ok {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	return paths
}
