package core_test

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
)

// ExampleRunParallel2D runs Hagen-Poiseuille channel flow with the lattice
// Boltzmann method on a (2 x 2) decomposition, one goroutine per
// subregion (each playing one workstation), and compares the velocity
// profile with the exact parabola. The paper's four control programs
// appear in order: initialization (parameters and the channel mask),
// decomposition, job submission over the in-process transport, and a
// check of the result.
func ExampleRunParallel2D() {
	const (
		nx, ny = 16, 21
		steps  = 4000
	)
	par := fluid.DefaultParams()
	par.Nu = 0.1
	par.Eps = 0.005
	par.ForceX = 1e-5

	d, err := decomp.New2D(2, 2, nx, ny, decomp.Full)
	if err != nil {
		log.Fatal(err)
	}
	d.PeriodicX = true
	cfg := &core.Config2D{
		Method: core.MethodLB,
		Par:    par,
		Mask:   fluid.ChannelMask2D(nx, ny),
		D:      d,
	}
	res, err := core.RunParallel2D(cfg, steps, core.HubFactory())
	if err != nil {
		log.Fatal(err)
	}

	// Bounce-back puts the walls half a node outside the outermost fluid
	// nodes.
	y0, y1 := 0.5, float64(ny)-1.5
	umax := fluid.PoiseuilleMax(y0, y1, par.ForceX, par.Nu)
	fmt.Printf("%4s %12s %12s %10s\n", "y", "computed", "exact", "rel.err")
	worst := 0.0
	for y := 1; y < ny-1; y++ {
		got := res.At(res.Vx, nx/2, y)
		want := fluid.PoiseuilleProfile(float64(y), y0, y1, par.ForceX, par.Nu)
		rel := math.Abs(got-want) / umax
		worst = max(worst, rel)
		fmt.Printf("%4d %12.6g %12.6g %9.2e\n", y, got, want, rel)
	}
	fmt.Printf("worst relative error: %.3g (umax %.4g)\n", worst, umax)
	// Output:
	//    y     computed        exact    rel.err
	//    1  0.000450993    0.0004625  2.55e-03
	//    2   0.00130098    0.0013125  2.55e-03
	//    3   0.00205097    0.0020625  2.56e-03
	//    4   0.00270096    0.0027125  2.56e-03
	//    5   0.00325095    0.0032625  2.56e-03
	//    6   0.00370094    0.0037125  2.56e-03
	//    7   0.00405093    0.0040625  2.56e-03
	//    8   0.00430092    0.0043125  2.57e-03
	//    9   0.00445092    0.0044625  2.57e-03
	//   10   0.00450092    0.0045125  2.57e-03
	//   11   0.00445092    0.0044625  2.57e-03
	//   12   0.00430092    0.0043125  2.57e-03
	//   13   0.00405093    0.0040625  2.56e-03
	//   14   0.00370094    0.0037125  2.56e-03
	//   15   0.00325095    0.0032625  2.56e-03
	//   16   0.00270096    0.0027125  2.56e-03
	//   17   0.00205097    0.0020625  2.56e-03
	//   18   0.00130098    0.0013125  2.55e-03
	//   19  0.000450993    0.0004625  2.55e-03
	// worst relative error: 0.00257 (umax 0.004513)
}

// ExampleRunParallel3D is the three-dimensional story of figure 9:
// plane-Poiseuille flow between plates with the D3Q15 lattice Boltzmann
// method on a (2 x 2 x 2) decomposition, eight worker goroutines
// exchanging five populations per face node through the x/y/z sweep
// protocol. What such a decomposition costs on the paper's shared
// Ethernet is `go run ./cmd/experiments -exp=networks`.
func ExampleRunParallel3D() {
	const (
		nx, ny, nz = 4, 17, 4
		steps      = 3000
	)
	par := fluid.DefaultParams()
	par.Nu = 0.1
	par.Eps = 0
	par.ForceX = 2e-5

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
	res, err := core.RunParallel3D(cfg, steps, core.HubFactory())
	if err != nil {
		log.Fatal(err)
	}

	y0, y1 := 0.5, float64(ny)-1.5
	umax := fluid.PoiseuilleMax(y0, y1, par.ForceX, par.Nu)
	fmt.Printf("%4s %12s %12s\n", "y", "computed", "exact")
	worst := 0.0
	for y := 1; y < ny-1; y++ {
		got := res.At(res.Vx, nx/2, y, nz/2)
		want := fluid.PoiseuilleProfile(float64(y), y0, y1, par.ForceX, par.Nu)
		worst = max(worst, math.Abs(got-want)/umax)
		fmt.Printf("%4d %12.6g %12.6g\n", y, got, want)
	}
	fmt.Printf("worst relative error: %.3g\n", worst)
	// Output:
	//    y     computed        exact
	//    1  0.000701999     0.000725
	//    2     0.002002     0.002025
	//    3   0.00310199     0.003125
	//    4   0.00400199     0.004025
	//    5   0.00470199     0.004725
	//    6   0.00520199     0.005225
	//    7   0.00550199     0.005525
	//    8   0.00560199     0.005625
	//    9   0.00550199     0.005525
	//   10   0.00520199     0.005225
	//   11   0.00470199     0.004725
	//   12   0.00400199     0.004025
	//   13   0.00310199     0.003125
	//   14     0.002002     0.002025
	//   15  0.000701999     0.000725
	// worst relative error: 0.00409
}
