package core

import (
	"fmt"
	"slices"

	"repro/internal/decomp"
	"repro/internal/dump"
)

// box is one rank's interior in global coordinates. A 2D subregion is a box
// one plane thick.
type box struct{ x0, y0, z0, nx, ny, nz int }

func boxOf(s *decomp.Subregion) box { return box{s.X0, s.Y0, s.Z0, s.NX, s.NY, s.NZ} }

// lattice is the descriptor the driver is written over: the global grid,
// its periodic axes, and the boxes of the active ranks, by rank. hz is the
// ghost depth of a rank's arrays along z: 1 in 3D; 0 in 2D, whose arrays
// are ny+2 rows of nx+2 values and nothing else. A rank's array — live
// solver storage or a dump of it, the layout is the same — holds one ghost
// layer on every other side.
type lattice struct {
	gx, gy, gz int
	px, py, pz bool
	hz         int
	boxes      []box
}

// initField is an initial fluid variable at global coordinates (z = 0 in
// 2D); nil means the variable's rest value everywhere.
type initField func(x, y, z int) float64

// latticeOf describes a decomposition whose ranks' arrays have hz ghost
// layers along z.
func latticeOf(d *decomp.Decomp, hz int) lattice {
	lat := lattice{
		gx: d.GX, gy: d.GY, gz: d.GZ,
		px: d.PeriodicX, py: d.PeriodicY, pz: d.PeriodicZ,
		hz: hz, boxes: make([]box, d.P()),
	}
	for rank := range lat.boxes {
		lat.boxes[rank] = boxOf(d.ByRank(rank))
	}
	return lat
}

// wrapCoord folds a global coordinate into [0, g) on periodic axes.
func wrapCoord(v, g int, periodic bool) int {
	if !periodic {
		return v
	}
	return ((v % g) + g) % g
}

// values is the length of a box's arrays.
func (lat lattice) values(b box) int { return (b.nx + 2) * (b.ny + 2) * (b.nz + 2*lat.hz) }

// row is the offset, in a box's array, of local node (-1, y, z).
func (lat lattice) row(b box, y, z int) int { return ((z+lat.hz)*(b.ny+2) + y + 1) * (b.nx + 2) }

// fill writes f, evaluated at wrapped global coordinates, into every node of
// a rank's array, ghosts included: a ghost then holds its neighbour's edge
// value, exactly the state an exchange would have produced. Nodes beyond a
// non-periodic face, and every node when f is nil, get def.
func (lat lattice) fill(data []float64, b box, f initField, def float64) {
	if f == nil {
		for i := range data {
			data[i] = def
		}
		return
	}
	for z := -lat.hz; z < b.nz+lat.hz; z++ {
		gz := wrapCoord(b.z0+z, lat.gz, lat.pz)
		for y := -1; y <= b.ny; y++ {
			gy := wrapCoord(b.y0+y, lat.gy, lat.py)
			outside := gy < 0 || gy >= lat.gy || gz < 0 || gz >= lat.gz
			row := data[lat.row(b, y, z):][:b.nx+2]
			for i := range row {
				gx := wrapCoord(b.x0+i-1, lat.gx, lat.px)
				if outside || gx < 0 || gx >= lat.gx {
					row[i] = def
				} else {
					row[i] = f(gx, gy, gz)
				}
			}
		}
	}
}

// stitch copies a rank's interior rows from its array into the global
// array. Interiors are authoritative at a step boundary; ghosts are not read.
func (lat lattice) stitch(global []float64, b box, data []float64) {
	for z := 0; z < b.nz; z++ {
		for y := 0; y < b.ny; y++ {
			g := ((b.z0+z)*lat.gy+b.y0+y)*lat.gx + b.x0
			copy(global[g:g+b.nx], data[lat.row(b, y, z)+1:])
		}
	}
}

// cut writes a new rank's array, lat.values(b) long, from the global one:
// interior rows by copy, ghosts from the wrapped global coordinate — the
// new neighbour's edge value, which is what the last exchange would have
// left there. A node beyond a non-periodic face is in nobody's interior and
// gets outside.
func (lat lattice) cut(data, global []float64, b box, outside float64) {
	west := wrapCoord(b.x0-1, lat.gx, lat.px)
	east := wrapCoord(b.x0+b.nx, lat.gx, lat.px)
	for z := -lat.hz; z < b.nz+lat.hz; z++ {
		gz := wrapCoord(b.z0+z, lat.gz, lat.pz)
		for y := -1; y <= b.ny; y++ {
			gy := wrapCoord(b.y0+y, lat.gy, lat.py)
			row := data[lat.row(b, y, z):][:b.nx+2]
			if gz < 0 || gz >= lat.gz || gy < 0 || gy >= lat.gy {
				for i := range row {
					row[i] = outside
				}
				continue
			}
			g := global[(gz*lat.gy+gy)*lat.gx:][:lat.gx]
			copy(row[1:], g[b.x0:b.x0+b.nx])
			row[0], row[b.nx+1] = outside, outside
			if west >= 0 {
				row[0] = g[west]
			}
			if east < lat.gx {
				row[b.nx+1] = g[east]
			}
		}
	}
}

// recut is the re-split of either dimension: one complete set of dumps over
// the old lattice's boxes in, one Program per box of the next lattice out,
// holding the same step's state, with its dump: views of its own arrays,
// which Job.launch restores in place. It changes nothing it is given but
// the retired Programs it reuses. Everything is validated first — the
// filter off, the next lattice over the same grid, one dump per old rank
// at a common step, the config's method and geometry, every field present
// at full length — so a bad set is an error before anything is touched.
// The new ranks are the retired ones, rebound, if those held the next
// lattice's boxes, or else fresh geometry, one goroutine a rank. Each
// field is stitched into one global array and cut straight into the new
// ranks' arrays, each on one goroutine a rank: every value is written
// once, and no dump array is allocated.
//
// Nodes beyond a non-periodic face get what a fresh rank holds there:
// Rho0 in rho, zero in the velocities and in the populations
// (InitEquilibrium zeroes ghost populations). The rule keeps the cut equal
// to a fresh build, bit for bit, which an open face needs
// (TestOpenFacesSurviveDumps).
func recut[P built](cfg, next setup[P], states []*dump.State, retired []P) ([]P, []*dump.State, error) {
	par := cfg.physics()
	if par.Eps != 0 {
		return nil, nil, fmt.Errorf("resize requires the fourth-order filter off (Par.Eps = %v, want 0): filter applicability is seam-dependent, so a re-split would change the results", par.Eps)
	}
	lat, to := cfg.lattice(), next.lattice()
	if to.gx != lat.gx || to.gy != lat.gy || to.gz != lat.gz {
		return nil, nil, fmt.Errorf("shape covers %dx%dx%d, grid is %dx%dx%d", to.gx, to.gy, to.gz, lat.gx, lat.gy, lat.gz)
	}
	if len(states) != len(lat.boxes) {
		return nil, nil, fmt.Errorf("%d dumps for %d ranks", len(states), len(lat.boxes))
	}
	step, err := checkSet(states)
	if err != nil {
		return nil, nil, err
	}
	method, fields := cfg.dumpSchema()
	for _, st := range states {
		b := lat.boxes[st.Rank]
		switch {
		case st.Method != method:
			return nil, nil, fmt.Errorf("rank %d dump method %q, solver is %q", st.Rank, st.Method, method)
		case st.NX != b.nx || st.NY != b.ny || st.NZ != b.nz:
			return nil, nil, fmt.Errorf("rank %d dump geometry %dx%dx%d, subregion is %dx%dx%d",
				st.Rank, st.NX, st.NY, st.NZ, b.nx, b.ny, b.nz)
		}
		for _, name := range fields {
			data, ok := st.Fields[name]
			if !ok {
				return nil, nil, fmt.Errorf("old dumps lack field %q (rank %d)", name, st.Rank)
			}
			if len(data) != lat.values(b) {
				return nil, nil, fmt.Errorf("rank %d field %q has %d values, want %d", st.Rank, name, len(data), lat.values(b))
			}
		}
	}

	progs := reuse(retired, to, next.decomposition())
	if progs == nil {
		progs = make([]P, len(to.boxes))
		if err := eachRank(len(progs), func(rank int) (err error) {
			if progs[rank], err = next.geometry(rank); err != nil {
				return fmt.Errorf("building rank %d: %w", rank, err)
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}
	out := make([]*dump.State, len(progs))
	for rank, p := range progs {
		out[rank] = p.dump(step, 0, nil)
	}
	// The old boxes tile the lattice, so every stitch overwrites the whole
	// array and one serves all fields. The stitches write disjoint rows of
	// it, and each cut writes only its own rank's array.
	global := make([]float64, lat.gx*lat.gy*lat.gz)
	for _, name := range fields {
		eachRank(len(states), func(i int) error {
			lat.stitch(global, lat.boxes[states[i].Rank], states[i].Fields[name])
			return nil
		})
		outside := 0.0
		if name == "rho" {
			outside = par.Rho0
		}
		eachRank(len(out), func(rank int) error {
			to.cut(out[rank].Fields[name], global, to.boxes[rank], outside)
			return nil
		})
	}
	return progs, out, nil
}

// reuse returns the retired Programs, rebound to d, if each held its rank's box in to.
func reuse[P built](retired []P, to lattice, d *decomp.Decomp) []P {
	if !slices.EqualFunc(retired, to.boxes, func(p P, b box) bool { return p.interior() == b }) {
		return nil
	}
	for _, p := range retired {
		p.rebind(d)
	}
	return retired
}
