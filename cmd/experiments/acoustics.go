package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
)

// acoustics shows why subsonic flow forces small time steps (section 6,
// equation 4). A Gaussian density pulse in a periodic box expands as an
// acoustic ring at the speed of sound c_s, so the step must satisfy
// dx ~ c_s dt to resolve it, and the large steps of implicit methods buy
// nothing. The entry tracks the wavefront radius of both methods against
// c_s*t, and fails unless each method's least-squares wavefront speed is
// within 5% of c_s.
func acoustics(w io.Writer) error {
	const n = 96
	par := fluid.DefaultParams()
	header(w, "Section 6, equation 4: an acoustic pulse sets the time step")
	fmt.Fprintf(w, "acoustic pulse in a %dx%d periodic box, c_s = %.4f, dt = %g\n", n, n, par.Cs, par.Dt)
	fmt.Fprintf(w, "(both methods share c_s = 1/sqrt(3) in lattice units)\n\n")
	fmt.Fprintf(w, "%6s %10s %12s %12s\n", "steps", "c_s*t", "FD radius", "LB radius")
	steps := []int{15, 25, 35, 45}
	ts := make([]float64, len(steps))
	fdR, lbR := make([]float64, len(steps)), make([]float64, len(steps))
	for i, s := range steps {
		ts[i] = float64(s) * par.Dt
		var err error
		if fdR[i], err = wavefront(core.MethodFD, n, s); err != nil {
			return err
		}
		if lbR[i], err = wavefront(core.MethodLB, n, s); err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d %10.1f %12.0f %12.0f\n", s, par.Cs*ts[i], fdR[i], lbR[i])
	}
	fmt.Fprintln(w)
	for _, m := range []struct {
		name  string
		radii []float64
	}{{"FD", fdR}, {"LB", lbR}} {
		v := slope(ts, m.radii)
		fmt.Fprintf(w, "%s wavefront speed (least squares): %.3f, %+.1f%% from c_s\n", m.name, v, 100*(v/par.Cs-1))
		if math.Abs(v/par.Cs-1) > 0.05 {
			return fmt.Errorf("%s wavefront speed %.3f is more than 5%% from c_s = %.4f", m.name, v, par.Cs)
		}
	}
	fmt.Fprintln(w, "\nthe ring tracks c_s*t: the time step is pinned by acoustics (eq. 4),")
	fmt.Fprintln(w, "so explicit local methods are the right tool and parallelize with")
	fmt.Fprintln(w, "one small boundary exchange per step.")
	return nil
}

// wavefront runs the pulse for steps steps with method on a (2 x 2)
// decomposition and returns the radius, along +x from the centre, of the
// largest density excess.
func wavefront(method string, n, steps int) (float64, error) {
	d, err := decomp.New2D(2, 2, n, n, decomp.Full)
	if err != nil {
		return 0, err
	}
	d.PeriodicX, d.PeriodicY = true, true
	par := fluid.DefaultParams()
	par.Nu = 0.02
	par.Eps = 0.003
	c := float64(n) / 2
	cfg := &core.Config2D{
		Method: method,
		Par:    par,
		Mask:   fluid.NewMask2D(n, n),
		D:      d,
		InitRho: func(x, y int) float64 {
			return par.Rho0 + fluid.AcousticPulse2D(float64(x), float64(y), c, c, 1e-3, 3)
		},
	}
	res, err := core.RunParallel2D(cfg, steps, core.HubFactory())
	if err != nil {
		return 0, err
	}
	bestR, bestV := 0, -1.0
	for r := 1; r < n/2-2; r++ {
		if v := res.At(res.Rho, n/2+r, n/2) - par.Rho0; v > bestV {
			bestV, bestR = v, r
		}
	}
	return float64(bestR), nil
}

// slope is the least-squares slope of y against x.
func slope(x, y []float64) float64 {
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(y))
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	return sxy / sxx
}
