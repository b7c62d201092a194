package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestEveryExperimentRuns runs each table entry into io.Discard, so the
// entries' gates (crash-restore identity, the hetero imbalance ceiling,
// autoscale beating static ranks and shrinking under collapse, sweep
// replay byte-identity, convergence) fail here with the entry's error.
func TestEveryExperimentRuns(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] {
			t.Fatalf("experiment %q is listed twice", e.name)
		}
		seen[e.name] = true
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			if err := e.run(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFig2ActiveSubregions pins figure 2's count for this geometry:
// geom.FluePipeChannel at 240x160 leaves 23 of the (6 x 4) subregions
// active where the paper's drawing leaves 15 (DESIGN.md, the fig2 row).
func TestFig2ActiveSubregions(t *testing.T) {
	var b strings.Builder
	if err := fig2(&b); err != nil {
		t.Fatal(err)
	}
	const want = "decomposition (6 x 4): 23 active subregions, 1 inactive (all wall)\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("fig2 output lacks %q", want)
	}
}

// TestDesignIndexNamesEveryExperiment: DESIGN.md's per-experiment index
// has one row per table entry, with the entry's name and paper source,
// and no row for a name the table lacks.
func TestDesignIndexNamesEveryExperiment(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "| Experiment | Paper source | Code |\n")
	if !ok {
		t.Fatal("DESIGN.md has no per-experiment index table")
	}
	index := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, " | ")
		name, opened := strings.CutPrefix(cells[0], "| `")
		name, closed := strings.CutSuffix(name, "`")
		if opened && closed && len(cells) == 3 {
			index[name] = cells[1]
		}
	}
	for _, e := range experiments {
		src, ok := index[e.name]
		switch {
		case !ok:
			t.Errorf("DESIGN.md's index has no row for %q", e.name)
		case src != e.source:
			t.Errorf("DESIGN.md's index gives %q the source %q; the table says %q", e.name, src, e.source)
		}
		delete(index, e.name)
	}
	for name := range index {
		t.Errorf("DESIGN.md's index names %q, which is not in the experiments table", name)
	}
}
