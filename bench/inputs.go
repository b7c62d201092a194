package main

import (
	"math"
	"math/rand"

	"repro/internal/fluid"
)

// Every input is made from the workload seed and nothing else: the same
// seed yields the same mask, the same initial density and (on the
// disturbed and farm workloads) the same choice of migrated ranks and
// generated jobs. The program under test only ever sees these inputs.

// obstacleFrac is the share of the lattice width one obstacle spans; with
// the band geometry below it puts about 3% of the cells inside a solid
// and about a quarter of the x-rows through one, so roughly one row in
// four leaves the all-interior fast path of the kernels.
const obstacleFrac = 0.12

func clamp(v, lo, hi int) int {
	return max(lo, min(v, hi))
}

// mask2D is a periodic-in-x channel with seeded rectangular solids, one
// per horizontal band.
func mask2D(nx, ny int, rng *rand.Rand) *fluid.Mask2D {
	m := fluid.ChannelMask2D(nx, ny)
	k := clamp(ny/64, 1, 8)
	band := (ny - 2) / k
	h := max(1, band/4)
	w := max(1, int(obstacleFrac*float64(nx)+0.5))
	for b := 0; b < k; b++ {
		y0 := 1 + b*band + rng.Intn(band-h+1)
		x0 := rng.Intn(nx - w + 1)
		m.FillRect(x0, y0, x0+w, y0+h, fluid.Wall)
	}
	return m
}

// mask3D is a duct (walls on the y faces, periodic in x and z) with
// seeded solid boxes, one per band in y, each half the band high and half
// the duct deep.
func mask3D(nx, ny, nz int, rng *rand.Rand) *fluid.Mask3D {
	m := fluid.ChannelMask3D(nx, ny, nz)
	k := clamp(ny/8, 1, 4)
	band := (ny - 2) / k
	h := max(1, band/2)
	d := max(1, nz/2)
	w := max(1, int(obstacleFrac*float64(nx)+0.5))
	for b := 0; b < k; b++ {
		y0 := 1 + b*band + rng.Intn(band-h+1)
		x0 := rng.Intn(nx - w + 1)
		z0 := rng.Intn(nz - d + 1)
		for z := z0; z < z0+d; z++ {
			for y := y0; y < y0+h; y++ {
				for x := x0; x < x0+w; x++ {
					m.Set(x, y, z, fluid.Wall)
				}
			}
		}
	}
	return m
}

// densityWave is the seeded initial density: the reference density plus a
// smooth 0.1% wave, periodic along the periodic axes so the wrapped ghost
// fill sees a continuous field.
type densityWave struct {
	rho0       float64
	kx, ky, kz float64 // radians per node
	px, pz     float64 // phases
}

const densityAmp = 1e-3

func newDensityWave(rho0 float64, nx, ny, nz int, rng *rand.Rand) densityWave {
	w := densityWave{
		rho0: rho0,
		kx:   2 * math.Pi * float64(1+rng.Intn(3)) / float64(nx),
		ky:   math.Pi * float64(1+rng.Intn(3)) / float64(ny),
		px:   2 * math.Pi * rng.Float64(),
		pz:   2 * math.Pi * rng.Float64(),
	}
	if nz > 0 {
		w.kz = 2 * math.Pi * float64(1+rng.Intn(3)) / float64(nz)
	}
	return w
}

func (w densityWave) at2(x, y int) float64 {
	return w.rho0 * (1 + densityAmp*math.Cos(w.kx*float64(x)+w.px)*math.Sin(w.ky*(float64(y)+0.5)))
}

func (w densityWave) at3(x, y, z int) float64 {
	return w.rho0 * (1 + densityAmp*math.Cos(w.kx*float64(x)+w.px)*
		math.Sin(w.ky*(float64(y)+0.5))*math.Cos(w.kz*float64(z)+w.pz))
}
