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

// span places a global coordinate of one axis in a lattice: its offset at
// in the span of boxes that holds it, and of, that span's index times the
// axis's stride in a table of ranks (-1: beyond a non-periodic face).
type span struct{ of, at int }

// cutter returns the cut of box b of the next lattice to (over the same
// grid) from the arrays of this one's ranks, by rank: each node, ghosts
// included, gets the old interior value at its wrapped global coordinate
// (for a ghost, what the last exchange would have left there), and a node
// beyond a non-periodic face gets outside. The boxes are a tensor product
// of their spans, so every row of b reads the same x runs.
func (lat lattice) cutter(to lattice, b box) func(data []float64, src [][]float64, outside float64) {
	stride := 1
	axis := func(g int, lo func(b box) (int, int)) []span {
		s := make([]span, g)
		for _, b := range lat.boxes {
			o, n := lo(b)
			for i := range n {
				s[o+i].at = i
			}
		}
		k := -stride
		for i := range s {
			if s[i].at == 0 {
				k += stride
			}
			s[i].of = k
		}
		stride = k + stride
		return s
	}
	ox, oy, oz := axis(lat.gx, func(b box) (int, int) { return b.x0, b.nx }),
		axis(lat.gy, func(b box) (int, int) { return b.y0, b.ny }),
		axis(lat.gz, func(b box) (int, int) { return b.z0, b.nz })
	owner := make([]int, len(lat.boxes))
	for r, b := range lat.boxes {
		owner[ox[b.x0].of+oy[b.y0].of+oz[b.z0].of] = r
	}
	along := func(lo, n, halo, g int, periodic bool, s []span) (out []span) {
		for v := lo - halo; v < lo+n+halo; v++ {
			out = append(out, span{-1, 0})
			if w := wrapCoord(v, g, periodic); w >= 0 && w < g {
				out[len(out)-1] = s[w]
			}
		}
		return out
	}
	// A run is n nodes of a row from at, read from offset from in span of.
	type xrun struct{ at, n, of, from int }
	var runs []xrun
	for i, s := range along(b.x0, b.nx, 1, to.gx, to.px, ox) {
		if k := len(runs) - 1; k >= 0 && runs[k].of == s.of && runs[k].from+runs[k].n == s.at {
			runs[k].n++
		} else {
			runs = append(runs, xrun{i, 1, s.of, s.at})
		}
	}
	ys, zs := along(b.y0, b.ny, 1, to.gy, to.py, oy), along(b.z0, b.nz, to.hz, to.gz, to.pz, oz)
	return func(data []float64, src [][]float64, outside float64) {
		for _, z := range zs {
			for _, y := range ys {
				for _, r := range runs {
					dst := data[r.at : r.at+r.n]
					if r.of < 0 || y.of < 0 || z.of < 0 {
						for i := range dst {
							dst[i] = outside
						}
						continue
					}
					rank := owner[r.of+y.of+z.of]
					copy(dst, src[rank][lat.row(lat.boxes[rank], y.at, z.at)+1+r.from:])
				}
				data = data[b.nx+2:]
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
// Then one goroutine a new rank rebinds its retired Program, if those held
// the next lattice's boxes, or builds fresh geometry, and cuts every field
// into its arrays straight from the old ranks' dumps: every value is
// copied once, and no array is allocated for it.
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

	// Each goroutine writes only its own rank's Program and arrays.
	reuse := slices.EqualFunc(retired, to.boxes, func(p P, b box) bool { return p.interior() == b })
	progs, out := make([]P, len(to.boxes)), make([]*dump.State, len(to.boxes))
	return progs, out, eachRank(len(progs), func(rank int) (err error) {
		var p P
		if reuse {
			p = retired[rank]
			p.rebind(next.decomposition())
		} else if p, err = next.geometry(rank); err != nil {
			return fmt.Errorf("building rank %d: %w", rank, err)
		}
		progs[rank], out[rank] = p, p.dump(step, 0, nil)
		cut, src := lat.cutter(to, to.boxes[rank]), make([][]float64, len(states))
		for _, name := range fields {
			for _, st := range states {
				src[st.Rank] = st.Fields[name]
			}
			outside := 0.0
			if name == "rho" {
				outside = par.Rho0
			}
			cut(out[rank].Fields[name], src, outside)
		}
		return nil
	})
}
