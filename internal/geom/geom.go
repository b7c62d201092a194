// Package geom builds the flue-pipe geometries of figures 1 and 2: the
// simulated musical instruments (organ pipe, recorder, flute mouthpieces)
// that motivate the whole system. A jet of air enters from an opening in
// the left wall, impinges on a sharp edge (the labium), and couples to a
// resonant cavity; the gray areas are walls and the dark-gray enclosing
// walls demarcate the inlet and the outlet.
//
// The geometries are parameterized by grid size so callers can run
// scaled-down versions of the paper's 800x500 and 1107x700 grids; all
// features are placed at fixed fractions of the domain.
package geom

import "repro/internal/fluid"

// frac scales a dimension by a fraction, clamping to [0, n-1].
func frac(n int, f float64) int {
	v := int(f * float64(n))
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// FluePipe builds the figure-1 geometry: jet inlet on the left wall, a
// sharp edge in front of it, a resonant pipe along the bottom, and the
// outlet on the right part of the enclosure.
func FluePipe(nx, ny int) *fluid.Mask2D {
	m := fluid.NewMask2D(nx, ny)
	m.Border(fluid.Wall)

	jetY := frac(ny, 0.55)      // jet axis height
	jetHalf := max(1, ny/25)    // half-height of the inlet slot
	edgeX := frac(nx, 0.35)     // apex of the sharp edge
	pipeTop := frac(ny, 0.30)   // top wall of the resonant pipe
	pipeLeft := frac(nx, 0.10)  // closed end of the pipe
	pipeRight := frac(nx, 0.80) // open end of the pipe (under the edge)
	outTop := frac(ny, 0.45)    // outlet slot on the right wall
	outBottom := frac(ny, 0.70)

	// Inlet slot in the left wall.
	for y := jetY - jetHalf; y <= jetY+jetHalf; y++ {
		if y > 0 && y < ny-1 {
			m.Set(0, y, fluid.Inlet)
		}
	}

	// The sharp edge: a wedge with its apex at jet height, thickening to
	// the right and descending toward the pipe mouth.
	for i := 0; edgeX+i < frac(nx, 0.55); i++ {
		x := edgeX + i
		top := jetY - 1 - i/3 // slowly rising upper surface
		bot := jetY - 1 - i
		if bot < pipeTop {
			bot = pipeTop
		}
		for y := bot; y <= top; y++ {
			if y > 0 && y < ny-1 {
				m.Set(x, y, fluid.Wall)
			}
		}
	}

	// The resonant pipe: a horizontal duct along the bottom, closed at
	// the left, with its mouth under the sharp edge.
	for x := pipeLeft; x <= pipeRight; x++ {
		m.Set(x, pipeTop, fluid.Wall)
	}
	for y := 1; y <= pipeTop; y++ {
		m.Set(pipeLeft, y, fluid.Wall)
	}

	// Outlet slot in the right wall.
	for y := outTop; y <= outBottom; y++ {
		m.Set(nx-1, y, fluid.Outlet)
	}
	return m
}

// FluePipeChannel builds the figure-2 variant: the jet passes through a
// long channel before impinging the sharp edge, the outlet is at the top
// (the air tends to move upwards after impinging the edge), and the
// bottom-left of the enclosure is solid wall, producing entirely-solid
// subregions that the decomposition can leave unassigned. The paper
// employs 15 workstations for a (6 x 4) = 24 decomposition; at 240x160
// this geometry leaves only 1 subregion all wall, so 23 are needed
// (cmd/experiments TestFig2ActiveSubregions pins it, DESIGN.md "fig2").
func FluePipeChannel(nx, ny int) *fluid.Mask2D {
	m := FluePipe(nx, ny)

	jetY := frac(ny, 0.55)
	chanHalf := max(2, ny/20)
	edgeX := frac(nx, 0.35)

	// Channel walls from the left wall to just before the edge.
	for x := 1; x < edgeX-max(2, nx/40); x++ {
		for y := 1; y < ny-1; y++ {
			inChannel := y >= jetY-chanHalf && y <= jetY+chanHalf
			if !inChannel && y > frac(ny, 0.30) {
				m.Set(x, y, fluid.Wall)
			}
		}
	}

	// Solid lower-left block (the all-wall subregions of figure 2).
	for x := 1; x < frac(nx, 0.08); x++ {
		for y := 1; y < frac(ny, 0.30); y++ {
			m.Set(x, y, fluid.Wall)
		}
	}

	// Move the outlet to the top wall.
	for y := frac(ny, 0.45); y <= frac(ny, 0.70); y++ {
		if m.At(nx-1, y) == fluid.Outlet {
			m.Set(nx-1, y, fluid.Wall)
		}
	}
	for x := frac(nx, 0.55); x <= frac(nx, 0.85); x++ {
		m.Set(x, ny-1, fluid.Outlet)
	}
	return m
}
