package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/fd"
	"repro/internal/fluid"
	"repro/internal/lbm"
)

// convergence runs the section-7 validation problem serially with both
// numerical methods at several resolutions against the exact
// Hagen-Poiseuille solution (the paper: "both methods converge
// quadratically with increased resolution in space").
//
// With node-centred walls, the finite-difference steady state is the
// exact discrete parabola, so its error column sits at the numerical
// floor; the lattice Boltzmann error is dominated by the half-node wall
// placement of bounce-back and shrinks quadratically. The entry fails if
// the FD error leaves round-off or the LB error does not fall at every
// refinement.
func convergence(w io.Writer) error {
	header(w, "Section 6/7 convergence: both methods vs exact Hagen-Poiseuille")
	fmt.Fprintf(w, "%8s %14s %14s %12s\n", "NY", "FD error", "LB error", "LB ratio")
	prev := 0.0
	for _, ny := range []int{11, 16, 21, 31} {
		efd, err := poiseuilleError(false, ny)
		if err != nil {
			return err
		}
		elb, err := poiseuilleError(true, ny)
		if err != nil {
			return err
		}
		ratio := ""
		if prev > 0 {
			ratio = fmt.Sprintf("%.2fx", prev/elb)
		}
		fmt.Fprintf(w, "%8d %14.3e %14.3e %12s\n", ny, efd, elb, ratio)
		if efd > 1e-12 {
			return fmt.Errorf("FD error %.3e at NY=%d is above round-off", efd, ny)
		}
		if prev > 0 && elb >= prev {
			return fmt.Errorf("LB error %.3e at NY=%d did not fall from %.3e", elb, ny, prev)
		}
		prev = elb
	}
	fmt.Fprintln(w, "\nLB error falls ~quadratically as the channel is refined;")
	fmt.Fprintln(w, "FD is exact for the parabolic profile (machine-level error).")
	return nil
}

// poiseuilleError runs a body-force-driven channel of ny nodes across to
// steady state with LB (lb) or FD and returns the largest profile error
// relative to the exact peak velocity.
func poiseuilleError(lb bool, ny int) (float64, error) {
	nu := 0.1
	h := float64(ny) - 2
	g := 0.01 * 2 * nu / (h * h / 4) // fixed peak velocity across resolutions
	par := fluid.DefaultParams()
	par.Nu = nu
	par.Eps = 0.005
	par.ForceX = g
	mask := fluid.ChannelMask2D(4, ny)
	lm := func(x, y int) fluid.CellType { return mask.At(x, y) }
	steps := int(6 * h * h / nu)

	// FD walls sit on the wall nodes; LB's bounce-back puts them half a
	// node inside.
	y0, y1 := 0.0, float64(ny-1)
	var step func()
	var vx func(x, y int) float64
	if lb {
		s, err := lbm.NewSolver2D(4, ny, par, lm)
		if err != nil {
			return 0, err
		}
		y0, y1 = 0.5, float64(ny)-1.5
		step, vx = func() { s.StepSerial(true, false) }, s.Vx.At
	} else {
		s, err := fd.NewSolver2D(4, ny, par, lm)
		if err != nil {
			return 0, err
		}
		step, vx = func() { s.StepSerial(true, false) }, s.Vx.At
	}
	for i := 0; i < steps; i++ {
		step()
	}
	umax := fluid.PoiseuilleMax(y0, y1, g, nu)
	worst := 0.0
	for y := 1; y < ny-1; y++ {
		want := fluid.PoiseuilleProfile(float64(y), y0, y1, g, nu)
		if rel := math.Abs(vx(2, y)-want) / umax; rel > worst {
			worst = rel
		}
	}
	return worst, nil
}
