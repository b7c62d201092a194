package lbm

import (
	"repro/internal/fluid"
	"repro/internal/grid"
)

// The mask-probing filter the frozen kernels in reference_test.go end a
// step with: the oracle of internal/filter's plan, copied here because a
// test file of another package cannot be imported. Every node's
// applicability is asked of the mask closure and every stencil value is
// read through the field accessors.

// applicable2D reports whether the filter stencil may be evaluated at
// interior node (x, y) of an nx-by-ny subregion: the node must be at least
// two nodes away from every subregion side that has no live neighbour
// data... both sides in this implementation (see internal/filter), and
// at least two nodes away from any non-fluid cell so the stencil never
// reads across a wall, inlet or outlet.
//
// mask gives the cell type at subregion-local coordinates and may consult
// ghost cells (offsets -1 and nx/ny are legal queries).
func applicable2D(x, y, nx, ny int, mask func(x, y int) fluid.CellType) bool {
	if x < 2 || x >= nx-2 || y < 2 || y >= ny-2 {
		return false
	}
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			if dx != 0 && dy != 0 {
				continue // star-shaped stencil: axes only
			}
			if mask(x+dx, y+dy) != fluid.Interior {
				return false
			}
		}
	}
	return true
}

// filterOracle2D filters the listed fields in place with strength eps.
// All fields share the mask and geometry. scratch must hold at least NX*NY values and
// is overwritten; passing a reused buffer avoids per-step allocation.
//
// The correction at every node is computed from the unfiltered values
// before any node is written, so the result does not depend on sweep order.
func filterOracle2D(fields []*grid.Field2D, eps float64, mask func(x, y int) fluid.CellType, scratch []float64) {
	if eps == 0 || len(fields) == 0 {
		return
	}
	nx, ny := fields[0].NX, fields[0].NY
	if len(scratch) < nx*ny {
		panic("filter: scratch buffer too small")
	}
	for _, f := range fields {
		if f.NX != nx || f.NY != ny {
			panic("filter: field geometry mismatch")
		}
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if !applicable2D(x, y, nx, ny, mask) {
					scratch[y*nx+x] = 0
					continue
				}
				d4x := f.At(x-2, y) - 4*f.At(x-1, y) + 6*f.At(x, y) - 4*f.At(x+1, y) + f.At(x+2, y)
				d4y := f.At(x, y-2) - 4*f.At(x, y-1) + 6*f.At(x, y) - 4*f.At(x, y+1) + f.At(x, y+2)
				scratch[y*nx+x] = d4x + d4y
			}
		}
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if c := scratch[y*nx+x]; c != 0 {
					f.Set(x, y, f.At(x, y)-eps*c)
				}
			}
		}
	}
}

// applicable3D is the 3D analogue of applicable2D.
func applicable3D(x, y, z, nx, ny, nz int, mask func(x, y, z int) fluid.CellType) bool {
	if x < 2 || x >= nx-2 || y < 2 || y >= ny-2 || z < 2 || z >= nz-2 {
		return false
	}
	for d := -2; d <= 2; d++ {
		if mask(x+d, y, z) != fluid.Interior ||
			mask(x, y+d, z) != fluid.Interior ||
			mask(x, y, z+d) != fluid.Interior {
			return false
		}
	}
	return true
}

// filterOracle3D filters 3D fields in place; scratch must hold NX*NY*NZ
// values.
func filterOracle3D(fields []*grid.Field3D, eps float64, mask func(x, y, z int) fluid.CellType, scratch []float64) {
	if eps == 0 || len(fields) == 0 {
		return
	}
	nx, ny, nz := fields[0].NX, fields[0].NY, fields[0].NZ
	if len(scratch) < nx*ny*nz {
		panic("filter: scratch buffer too small")
	}
	for _, f := range fields {
		if f.NX != nx || f.NY != ny || f.NZ != nz {
			panic("filter: field geometry mismatch")
		}
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					i := (z*ny+y)*nx + x
					if !applicable3D(x, y, z, nx, ny, nz, mask) {
						scratch[i] = 0
						continue
					}
					d4x := f.At(x-2, y, z) - 4*f.At(x-1, y, z) + 6*f.At(x, y, z) - 4*f.At(x+1, y, z) + f.At(x+2, y, z)
					d4y := f.At(x, y-2, z) - 4*f.At(x, y-1, z) + 6*f.At(x, y, z) - 4*f.At(x, y+1, z) + f.At(x, y+2, z)
					d4z := f.At(x, y, z-2) - 4*f.At(x, y, z-1) + 6*f.At(x, y, z) - 4*f.At(x, y, z+1) + f.At(x, y, z+2)
					scratch[i] = d4x + d4y + d4z
				}
			}
		}
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					if c := scratch[(z*ny+y)*nx+x]; c != 0 {
						f.Set(x, y, z, f.At(x, y, z)-eps*c)
					}
				}
			}
		}
	}
}
