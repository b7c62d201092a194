package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fd"
	"repro/internal/lbm"
)

// Resize re-decomposes a running job onto a new lattice of subregions at a
// step boundary: every process synchronizes and dumps (the section-5.1
// suspend protocol), the dumped interiors are stitched back into the global
// fields, the global grid is split again under the new shape, and one fresh
// worker per new rank restarts at the same step. It is the malleable-job
// extension of migration — migration moves ranks between hosts, Resize
// changes how many ranks there are.
//
// The continued computation is bitwise identical to an uninterrupted run,
// under one precondition enforced here: the fourth-order filter must be off
// (Par.Eps == 0). The filter's applicability test is seam-dependent — it
// consults neighbouring subregion geometry — so changing the decomposition
// would change which nodes get filtered and the results would (correctly)
// diverge. Everything else in both methods depends only on global node
// coordinates, so a re-split reproduces the exact global state: interiors
// are authoritative at a step boundary, and each new rank's ghost layers
// are filled with its new neighbours' edge values — exactly the state the
// last halo exchange would have produced.
//
// Like every dump/restore path (migration, checkpointing), bit-identity
// also requires an enclosed domain: every face of the global grid must be
// periodic or covered by Wall/Inlet/Outlet cells. On an open face the
// solvers read beyond-domain ghost values that live in their double-swap
// buffers — only the current buffer is dumped, so no restore can
// reproduce them (the hidden buffer's ghosts alternate with step parity).
// Enclosed domains never read those ghosts, which is what makes the whole
// dump-file protocol exact.
//
// The shape must cover the job's global grid (spans summing to GX/GY[/GZ]);
// the rank count after the resize is len(sh.X)*len(sh.Y)[*len(sh.Z)].
// Decompositions with deactivated subregions are not resizable: the re-split
// activates every subregion, which would change the gathered solution in
// the wall regions.
//
// A refused resize — bad shape, filter on, dumps that fail validation —
// changes nothing: the re-split validates everything before it builds
// anything and commits the new decomposition last, so the job is resumed
// from the suspended states at its old width and the error is returned.
func (j *Job) Resize(sh decomp.Shape) error {
	if j.resplit == nil {
		return fmt.Errorf("core: resize: job has no re-split program (built without NewJob2D/NewJob3D)")
	}
	states, err := j.Suspend()
	if err != nil {
		return fmt.Errorf("core: resize: %w", err)
	}
	newStates, err := j.resplit(states, sh)
	if err != nil {
		// The re-split commits last, so nothing has changed; put the job
		// back the way it was and the caller still holds a consistent run.
		if rerr := j.Resume(states); rerr != nil {
			return fmt.Errorf("core: resize: %w (and resume after failure: %v)", err, rerr)
		}
		return fmt.Errorf("core: resize: %w", err)
	}

	// The old rank->host map describes ranks that no longer exist; clear
	// it so a later ReleaseHosts cannot unassign hosts a scheduler gave
	// away. The caller re-places the resized job (PlaceOn). A failed
	// resplit above keeps the map — the rollback resumed the job on its
	// old placement.
	for rank := range j.hostOf {
		delete(j.hostOf, rank)
	}

	if err := j.restart(newStates); err != nil {
		return fmt.Errorf("core: resize: %w", err)
	}
	return nil
}

// box is one rank's interior in global coordinates. A 2D subregion is a box
// one plane thick.
type box struct{ x0, y0, z0, nx, ny, nz int }

// lattice is the global grid the boxes tile. hz is the ghost depth of a
// rank's dump arrays along z: 1 in 3D; 0 in 2D, whose arrays are ny+2 rows
// of nx+2 values and nothing else.
type lattice struct {
	gx, gy, gz int
	px, py, pz bool
	hz         int
}

// values is the length of a box's dump arrays.
func (lat lattice) values(b box) int { return (b.nx + 2) * (b.ny + 2) * (b.nz + 2*lat.hz) }

// row is the offset, in a box's dump array, of local node (-1, y, z).
func (lat lattice) row(b box, y, z int) int { return ((z+lat.hz)*(b.ny+2) + y + 1) * (b.nx + 2) }

// stitch copies a rank's interior rows from its dump array into the global
// array. Interiors are authoritative at a step boundary; ghosts are not read.
func (lat lattice) stitch(global []float64, b box, data []float64) {
	for z := 0; z < b.nz; z++ {
		for y := 0; y < b.ny; y++ {
			g := ((b.z0+z)*lat.gy+b.y0+y)*lat.gx + b.x0
			copy(global[g:g+b.nx], data[lat.row(b, y, z)+1:])
		}
	}
}

// cut builds a new rank's dump array from the global one: interior rows by
// copy, ghosts from the wrapped global coordinate — the new neighbour's
// edge value, which is what the last exchange would have left there. A
// node beyond a non-periodic face is in nobody's interior and gets outside.
func (lat lattice) cut(global []float64, b box, outside float64) []float64 {
	data := make([]float64, lat.values(b))
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
	return data
}

// recut is the re-split both dimensions share: one complete set of dumps
// over the old boxes in, one dump per new box out, at the same step. It
// builds no Program. The dumps are validated in full first — one per old
// rank, common step, the config's method and geometry, every field present
// at full length — so a bad set is an error before anything is allocated.
// Then each field is stitched into one global array and cut again.
//
// Nodes beyond a non-periodic face get what a fresh rank holds there:
// Rho0 in rho, zero in the velocities and in the populations
// (InitEquilibrium zeroes ghost populations). Enclosed domains never read
// them; the rule only keeps the cut equal to a fresh build, bit for bit.
func recut(lat lattice, method string, fields []string, rho0 float64, states []*dump.State, old, cut []box) ([]*dump.State, error) {
	if len(states) != len(old) {
		return nil, fmt.Errorf("%d dumps for %d ranks", len(states), len(old))
	}
	seen := make([]bool, len(old))
	for _, st := range states {
		if st.Rank < 0 || st.Rank >= len(old) || seen[st.Rank] {
			return nil, fmt.Errorf("dump of rank %d is out of range or repeated (%d ranks)", st.Rank, len(old))
		}
		seen[st.Rank] = true
		b := old[st.Rank]
		switch {
		case st.Step != states[0].Step:
			return nil, fmt.Errorf("dumps at different steps (%d and %d)", states[0].Step, st.Step)
		case st.Method != method:
			return nil, fmt.Errorf("rank %d dump method %q, solver is %q", st.Rank, st.Method, method)
		case st.NX != b.nx || st.NY != b.ny || st.NZ != b.nz:
			return nil, fmt.Errorf("rank %d dump geometry %dx%dx%d, subregion is %dx%dx%d",
				st.Rank, st.NX, st.NY, st.NZ, b.nx, b.ny, b.nz)
		}
		for _, name := range fields {
			data, ok := st.Fields[name]
			if !ok {
				return nil, fmt.Errorf("old dumps lack field %q (rank %d)", name, st.Rank)
			}
			if len(data) != lat.values(b) {
				return nil, fmt.Errorf("rank %d field %q has %d values, want %d", st.Rank, name, len(data), lat.values(b))
			}
		}
	}

	out := make([]*dump.State, len(cut))
	for rank, b := range cut {
		out[rank] = &dump.State{
			Rank: rank, Step: states[0].Step, Method: method,
			NX: b.nx, NY: b.ny, NZ: b.nz,
			Fields: make(map[string][]float64, len(fields)),
		}
	}
	// The old boxes tile the lattice, so every stitch overwrites the whole
	// array and one serves all fields.
	global := make([]float64, lat.gx*lat.gy*lat.gz)
	for _, name := range fields {
		for _, st := range states {
			lat.stitch(global, old[st.Rank], st.Fields[name])
		}
		outside := 0.0
		if name == "rho" {
			outside = rho0
		}
		for rank, b := range cut {
			out[rank].Fields[name] = lat.cut(global, b, outside)
		}
	}
	return out, nil
}

// filterOff is the resize precondition on the fourth-order filter.
func filterOff(eps float64) error {
	if eps != 0 {
		return fmt.Errorf("resize requires the fourth-order filter off (Par.Eps = %v, want 0): filter applicability is seam-dependent, so a re-split would change the results", eps)
	}
	return nil
}

// resplit2D is the 2D re-split program: old-shape dumps in, new-shape dumps
// out, both at the same step. On success, and only then, the config's
// decomposition is replaced in place, so the job's Rebuild closure and the
// caller's gather path follow the new lattice.
func resplit2D(cfg *Config2D, states []*dump.State, sh decomp.Shape) ([]*dump.State, error) {
	if err := filterOff(cfg.Par.Eps); err != nil {
		return nil, err
	}
	if cfg.D.P() != cfg.D.Total() {
		return nil, fmt.Errorf("resize of a decomposition with %d of %d subregions deactivated",
			cfg.D.Total()-cfg.D.P(), cfg.D.Total())
	}
	newD, err := decomp.New2DShaped(sh, cfg.D.Stencil)
	if err != nil {
		return nil, err
	}
	if newD.GX != cfg.D.GX || newD.GY != cfg.D.GY {
		return nil, fmt.Errorf("shape covers %dx%d, grid is %dx%d", newD.GX, newD.GY, cfg.D.GX, cfg.D.GY)
	}
	newD.PeriodicX, newD.PeriodicY = cfg.D.PeriodicX, cfg.D.PeriodicY
	method, fields := cfg.dumpSchema()
	boxes := func(d *decomp.Decomp2D) []box {
		out := make([]box, d.P())
		for rank := range out {
			sub := d.ByRank(rank)
			out[rank] = box{x0: sub.X0, y0: sub.Y0, nx: sub.NX, ny: sub.NY, nz: 1}
		}
		return out
	}
	lat := lattice{gx: cfg.D.GX, gy: cfg.D.GY, gz: 1, px: cfg.D.PeriodicX, py: cfg.D.PeriodicY}
	out, err := recut(lat, method, fields, cfg.Par.Rho0, states, boxes(cfg.D), boxes(newD))
	if err != nil {
		return nil, err
	}
	*cfg.D = *newD
	return out, nil
}

// resplit3D is the 3D analogue of resplit2D.
func resplit3D(cfg *Config3D, states []*dump.State, sh decomp.Shape) ([]*dump.State, error) {
	if err := filterOff(cfg.Par.Eps); err != nil {
		return nil, err
	}
	newD, err := decomp.New3DShaped(sh)
	if err != nil {
		return nil, err
	}
	if newD.GX != cfg.D.GX || newD.GY != cfg.D.GY || newD.GZ != cfg.D.GZ {
		return nil, fmt.Errorf("shape covers %dx%dx%d, grid is %dx%dx%d",
			newD.GX, newD.GY, newD.GZ, cfg.D.GX, cfg.D.GY, cfg.D.GZ)
	}
	newD.PeriodicX, newD.PeriodicY, newD.PeriodicZ = cfg.D.PeriodicX, cfg.D.PeriodicY, cfg.D.PeriodicZ
	method, fields := cfg.dumpSchema()
	boxes := func(d *decomp.Decomp3D) []box {
		out := make([]box, d.P())
		for rank := range out {
			sub := d.ByRank(rank)
			out[rank] = box{sub.X0, sub.Y0, sub.Z0, sub.NX, sub.NY, sub.NZ}
		}
		return out
	}
	lat := lattice{
		gx: cfg.D.GX, gy: cfg.D.GY, gz: cfg.D.GZ,
		px: cfg.D.PeriodicX, py: cfg.D.PeriodicY, pz: cfg.D.PeriodicZ, hz: 1,
	}
	out, err := recut(lat, method, fields, cfg.Par.Rho0, states, boxes(cfg.D), boxes(newD))
	if err != nil {
		return nil, err
	}
	*cfg.D = *newD
	return out, nil
}

// dumpSchema returns the method name and field names of the dumps a
// config's ranks write. Validate admits only the two methods; any other
// falls to the last and fails recut's check of the dumps' own method.
func (c *Config2D) dumpSchema() (method string, fields []string) {
	if c.Method == MethodFD {
		return fd.DumpSchema2D()
	}
	return lbm.DumpSchema2D()
}

// dumpSchema is Config2D.dumpSchema for a 3D config.
func (c *Config3D) dumpSchema() (method string, fields []string) {
	if c.Method == MethodFD {
		return fd.DumpSchema3D()
	}
	return lbm.DumpSchema3D()
}
