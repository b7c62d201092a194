package main

import (
	"fmt"
	"io"

	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/geom"
	"repro/internal/viz"
)

// fig2 renders the figure-1 and figure-2 flue-pipe geometries as ASCII
// maps and reports the decomposition statistics of section 2: all-wall
// subregions are left unassigned, so fewer workstations than subregions
// suffice (DESIGN.md "fig2" records how this geometry's count differs
// from the paper's).
func fig2(w io.Writer) error {
	const nx, ny = 240, 160
	for _, g := range []struct {
		name   string
		mask   *fluid.Mask2D
		jx, jy int
	}{
		{"figure 1: flue pipe", geom.FluePipe(nx, ny), 5, 4},
		{"figure 2: flue pipe with channel", geom.FluePipeChannel(nx, ny), 6, 4},
	} {
		fmt.Fprintf(w, "=== %s (%dx%d) ===\n\n", g.name, nx, ny)
		fmt.Fprintln(w, viz.ASCIIVorticity(nx, ny, make([]float64, nx*ny), g.mask, 96))

		d, err := decomp.New2D(g.jx, g.jy, nx, ny, decomp.Full)
		if err != nil {
			return err
		}
		inactive := d.DeactivateWalls(g.mask.Solid)
		active := 0
		for _, s := range d.ActiveSubregions() {
			active += s.Nodes()
		}
		fmt.Fprintf(w, "decomposition (%d x %d): %d active subregions, %d inactive (all wall)\n",
			g.jx, g.jy, d.P(), inactive)
		fmt.Fprintf(w, "simulated nodes: %d of %d (%.0f%%)\n\n", active, nx*ny, 100*float64(active)/(nx*ny))
	}
	return nil
}
