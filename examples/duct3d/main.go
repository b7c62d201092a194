// Duct3d: the three-dimensional story of figure 9. Runs plane-Poiseuille
// flow between plates with the D3Q15 lattice Boltzmann method on a
// (2 x 2 x 2) decomposition — eight worker goroutines exchanging five
// populations per face node through the x/y/z sweep protocol — and
// validates the profile against the exact solution. What a 3D
// decomposition costs on the paper's shared Ethernet versus the networks
// its conclusion predicted (P x 1 x 1, 25^3 nodes per processor) is
// `go run ./cmd/experiments -exp=networks`.
//
//	go run ./examples/duct3d
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
)

func main() {
	const (
		nx, ny, nz = 16, 17, 16
		steps      = 3000
	)
	nu, g := 0.1, 2e-5
	par := fluid.DefaultParams()
	par.Nu = nu
	par.Eps = 0
	par.ForceX = g

	d, err := decomp.New3D(2, 2, 2, nx, ny, nz)
	if err != nil {
		log.Fatal(err)
	}
	d.PeriodicX, d.PeriodicZ = true, true
	cfg := &core.Config3D{
		Method: core.MethodLB,
		Par:    par,
		Mask:   fluid.ChannelMask3D(nx, ny, nz),
		D:      d,
	}
	fmt.Printf("3D duct %dx%dx%d, (2 x 2 x 2) decomposition, 8 workers, %d steps\n\n",
		nx, ny, nz, steps)
	res, err := core.RunParallel3D(cfg, steps, core.HubFactory())
	if err != nil {
		log.Fatal(err)
	}

	y0, y1 := 0.5, float64(ny)-1.5
	umax := fluid.PoiseuilleMax(y0, y1, g, nu)
	worst := 0.0
	fmt.Printf("%4s %12s %12s\n", "y", "computed", "exact")
	for y := 1; y < ny-1; y++ {
		got := res.At(res.Vx, nx/2, y, nz/2)
		want := fluid.PoiseuilleProfile(float64(y), y0, y1, g, nu)
		fmt.Printf("%4d %12.6g %12.6g\n", y, got, want)
		if rel := math.Abs(got-want) / umax; rel > worst {
			worst = rel
		}
	}
	fmt.Printf("\nworst relative error: %.3g\n", worst)
}
