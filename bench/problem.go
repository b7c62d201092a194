package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fd"
	"repro/internal/fluid"
	"repro/internal/lbm"
)

// lattice names one decomposed simulation: a method on a global grid cut
// into jx*jy*jz subregions. nz == 0 means two dimensions.
type lattice struct {
	method     string // core.MethodLB or core.MethodFD
	nx, ny, nz int
	jx, jy, jz int
	eps        float64 // filter strength; 0 switches the filter off
}

func (l lattice) is3D() bool { return l.nz > 0 }

func (l lattice) cells() int {
	if l.is3D() {
		return l.nx * l.ny * l.nz
	}
	return l.nx * l.ny
}

func (l lattice) ranks() int { return l.jx * l.jy * max(l.jz, 1) }

// single is the same global grid as one subregion: the plain baseline.
func (l lattice) single() lattice {
	l.jx, l.jy, l.jz = 1, 1, min(l.jz, 1)
	return l
}

// problem is a lattice with its seeded inputs bound: the core config the
// system under test is built from. Exactly one of c2, c3 is set.
type problem struct {
	lat lattice
	c2  *core.Config2D
	c3  *core.Config3D
}

// newProblem runs the initialization program: seeded mask, seeded initial
// density, decomposition. workers is the intra-rank slab budget.
func newProblem(l lattice, seed int64, workers int) (*problem, error) {
	rng := rand.New(rand.NewSource(seed))
	par := fluid.DefaultParams()
	par.Eps = l.eps
	par.ForceX = 1e-6
	p := &problem{lat: l}
	if l.is3D() {
		d, err := decomp.New3D(l.jx, l.jy, l.jz, l.nx, l.ny, l.nz)
		if err != nil {
			return nil, err
		}
		d.PeriodicX, d.PeriodicZ = true, true
		mask := mask3D(l.nx, l.ny, l.nz, rng)
		wave := newDensityWave(par.Rho0, l.nx, l.ny, l.nz, rng)
		p.c3 = &core.Config3D{Method: l.method, Par: par, Mask: mask, D: d, Workers: workers, InitRho: wave.at3}
		return p, p.c3.Validate()
	}
	st := decomp.Star
	if l.method == core.MethodLB {
		st = decomp.Full
	}
	d, err := decomp.New2D(l.jx, l.jy, l.nx, l.ny, st)
	if err != nil {
		return nil, err
	}
	d.PeriodicX = true
	mask := mask2D(l.nx, l.ny, rng)
	wave := newDensityWave(par.Rho0, l.nx, l.ny, 0, rng)
	p.c2 = &core.Config2D{Method: l.method, Par: par, Mask: mask, D: d, Workers: workers, InitRho: wave.at2}
	return p, p.c2.Validate()
}

// program builds one rank's Program through the public constructor.
func (p *problem) program(rank int) (core.Program, error) {
	if p.c3 != nil {
		return p.c3.NewProgram(rank)
	}
	return p.c2.NewProgram(rank)
}

// programs builds every rank's Program.
func (p *problem) programs() ([]core.Program, error) {
	out := make([]core.Program, p.lat.ranks())
	for r := range out {
		pr, err := p.program(r)
		if err != nil {
			return nil, err
		}
		out[r] = pr
	}
	return out, nil
}

// fields is a gathered global solution: rho, vx, vy (, vz) row-major.
type fields [][]float64

// gather inverts the decomposition over the given programs.
func (p *problem) gather(progs []core.Program) fields {
	if p.c3 != nil {
		ps := make([]*core.Program3D, len(progs))
		for i, pr := range progs {
			ps[i] = unwrap(pr).(*core.Program3D)
		}
		r := core.Gather3D(p.c3, ps, 0)
		return fields{r.Rho, r.Vx, r.Vy, r.Vz}
	}
	ps := make([]*core.Program2D, len(progs))
	for i, pr := range progs {
		ps[i] = unwrap(pr).(*core.Program2D)
	}
	r := core.Gather2D(p.c2, ps, 0)
	return fields{r.Rho, r.Vx, r.Vy}
}

// sequential is the reference executor: the same decomposition advanced in
// one goroutine with direct message delivery.
func (p *problem) sequential(steps int) (fields, error) {
	if p.c3 != nil {
		r, _, err := core.RunSequential3D(p.c3, steps)
		if err != nil {
			return nil, err
		}
		return fields{r.Rho, r.Vx, r.Vy, r.Vz}, nil
	}
	r, _, err := core.RunSequential2D(p.c2, steps)
	if err != nil {
		return nil, err
	}
	return fields{r.Rho, r.Vx, r.Vy}, nil
}

// stepSerial returns the StepSerial call of a single-subregion program,
// wrapping the problem's periodic axes.
func (p *problem) stepSerial(prog core.Program) (func(), error) {
	switch pr := prog.(type) {
	case *core.Program2D:
		switch m := pr.M.(type) {
		case *lbm.Solver2D:
			return func() { m.StepSerial(true, false) }, nil
		case *fd.Solver2D:
			return func() { m.StepSerial(true, false) }, nil
		}
	case *core.Program3D:
		switch m := pr.M.(type) {
		case *lbm.Solver3D:
			return func() { m.StepSerial(true, false, true) }, nil
		case *fd.Solver3D:
			return func() { m.StepSerial(true, false, true) }, nil
		}
	}
	return nil, fmt.Errorf("bench: no StepSerial for %T", prog)
}

// mass is the conserved quantity of the method summed over every rank's
// interior: the populations for lattice Boltzmann (which includes what is
// in bounce-back transit inside wall nodes), the density for finite
// differences.
func mass(progs []core.Program) (float64, error) {
	total := 0.0
	for _, pr := range progs {
		switch p := unwrap(pr).(type) {
		case *core.Program2D:
			switch m := p.M.(type) {
			case *lbm.Solver2D:
				for _, f := range m.F {
					total += f.SumInterior()
				}
				continue
			case *fd.Solver2D:
				total += m.Rho.SumInterior()
				continue
			}
		case *core.Program3D:
			switch m := p.M.(type) {
			case *lbm.Solver3D:
				for _, f := range m.F {
					total += f.SumInterior()
				}
				continue
			case *fd.Solver3D:
				total += m.Rho.SumInterior()
				continue
			}
		}
		return 0, fmt.Errorf("bench: no mass for %T", pr)
	}
	return total, nil
}

// sha returns the SHA-256 of the fields' IEEE-754 bits.
func (f fields) sha() string {
	h := sha256.New()
	buf := make([]byte, 0, 8<<10)
	for _, a := range f {
		for _, v := range a {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

func (f fields) finite() bool {
	for _, a := range f {
		for _, v := range a {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}
