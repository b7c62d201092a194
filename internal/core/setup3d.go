package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fd"
	"repro/internal/fluid"
	"repro/internal/grid"
	"repro/internal/lbm"
	"repro/internal/pool"
)

// Config3D describes a complete 3D simulation.
type Config3D struct {
	Method string
	Par    fluid.Params
	Mask   *fluid.Mask3D
	D      *decomp.Decomp3D

	// Workers is the intra-rank worker-slab budget per solver; 0 means an
	// even share of GOMAXPROCS across ranks (pool.DefaultPerRank).
	Workers int

	InitRho, InitVx, InitVy, InitVz func(x, y, z int) float64
}

// workerBudget resolves the intra-rank worker count (see Config2D).
func (c *Config3D) workerBudget() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return pool.DefaultPerRank(c.D.P())
}

// Validate checks the configuration.
func (c *Config3D) Validate() error {
	if c.Method != MethodFD && c.Method != MethodLB {
		return fmt.Errorf("core: unknown method %q", c.Method)
	}
	if c.Mask == nil || c.D == nil {
		return fmt.Errorf("core: mask and decomposition are required")
	}
	if c.Mask.NX != c.D.GX || c.Mask.NY != c.D.GY || c.Mask.NZ != c.D.GZ {
		return fmt.Errorf("core: mask %dx%dx%d does not match grid %dx%dx%d",
			c.Mask.NX, c.Mask.NY, c.Mask.NZ, c.D.GX, c.D.GY, c.D.GZ)
	}
	return c.Par.Check()
}

// LocalMask3D adapts the global mask to one box's local coordinates.
func LocalMask3D(d *decomp.Decomp3D, sub *decomp.Subregion3D, m *fluid.Mask3D) func(x, y, z int) fluid.CellType {
	return func(x, y, z int) fluid.CellType {
		gx := wrapCoord(sub.X0+x, d.GX, d.PeriodicX)
		gy := wrapCoord(sub.Y0+y, d.GY, d.PeriodicY)
		gz := wrapCoord(sub.Z0+z, d.GZ, d.PeriodicZ)
		return m.At(gx, gy, gz)
	}
}

// fill is Config2D.fill for a box: f at wrapped global coordinates in every
// node, ghosts included; def beyond a non-periodic domain or for a nil f.
func (c *Config3D) fill(dst *grid.Field3D, sub *decomp.Subregion3D, f func(x, y, z int) float64, def float64) {
	if f == nil {
		dst.Fill(def)
		return
	}
	for z := -1; z <= sub.NZ; z++ {
		gz := wrapCoord(sub.Z0+z, c.D.GZ, c.D.PeriodicZ)
		for y := -1; y <= sub.NY; y++ {
			gy := wrapCoord(sub.Y0+y, c.D.GY, c.D.PeriodicY)
			outside := gy < 0 || gy >= c.D.GY || gz < 0 || gz >= c.D.GZ
			row := dst.Data()[dst.Idx(-1, y, z):][:sub.NX+2]
			for i := range row {
				gx := wrapCoord(sub.X0+i-1, c.D.GX, c.D.PeriodicX)
				if outside || gx < 0 || gx >= c.D.GX {
					row[i] = def
				} else {
					row[i] = f(gx, gy, gz)
				}
			}
		}
	}
}

// geometry builds a rank's method with everything that is not state (see
// Config2D.geometry).
func (c *Config3D) geometry(rank int) (Method3D, error) {
	sub := c.D.ByRank(rank)
	mask := LocalMask3D(c.D, sub, c.Mask)
	var m Method3D
	switch c.Method {
	case MethodFD:
		s, err := fd.NewGeometry3D(sub.NX, sub.NY, sub.NZ, c.Par, mask)
		if err != nil {
			return nil, err
		}
		m = s
	case MethodLB:
		s, err := lbm.NewGeometry3D(sub.NX, sub.NY, sub.NZ, c.Par, mask)
		if err != nil {
			return nil, err
		}
		m = s
	default:
		return nil, fmt.Errorf("core: unknown method %q", c.Method)
	}
	m.SetWorkers(c.workerBudget())
	return m, nil
}

// fields3D returns a method's fluid variables (nil for a foreign method).
func fields3D(m Method3D) (rho, vx, vy, vz *grid.Field3D) {
	switch s := m.(type) {
	case *fd.Solver3D:
		return s.Rho, s.Vx, s.Vy, s.Vz
	case *lbm.Solver3D:
		return s.Rho, s.Vx, s.Vy, s.Vz
	}
	return nil, nil, nil, nil
}

// NewMethod3D builds the numerical method for one box with initialized
// fields and the intra-rank worker budget.
func (c *Config3D) NewMethod3D(rank int) (Method3D, error) {
	m, err := c.geometry(rank)
	if err != nil {
		return nil, err
	}
	sub := c.D.ByRank(rank)
	rho, vx, vy, vz := fields3D(m)
	c.fill(rho, sub, c.InitRho, c.Par.Rho0)
	c.fill(vx, sub, c.InitVx, 0)
	c.fill(vy, sub, c.InitVy, 0)
	c.fill(vz, sub, c.InitVz, 0)
	if s, ok := m.(*lbm.Solver3D); ok {
		s.InitEquilibrium()
	}
	return m, nil
}

// NewProgram builds the Program for one rank at the initial condition.
func (c *Config3D) NewProgram(rank int) (*Program3D, error) {
	m, err := c.NewMethod3D(rank)
	if err != nil {
		return nil, err
	}
	return NewProgram3D(m, c.D, rank), nil
}

// RestoreProgram builds the Program a dump belongs to, evaluating no
// initial condition (see Config2D.RestoreProgram).
func (c *Config3D) RestoreProgram(st *dump.State) (*Program3D, error) {
	if st.Rank < 0 || st.Rank >= c.D.P() {
		return nil, fmt.Errorf("core: dump of rank %d, decomposition has %d ranks", st.Rank, c.D.P())
	}
	m, err := c.geometry(st.Rank)
	if err != nil {
		return nil, err
	}
	p := NewProgram3D(m, c.D, st.Rank)
	if err := p.RestoreState(st); err != nil {
		return nil, err
	}
	return p, nil
}

// Decompose3D produces one dump per active box.
func Decompose3D(c *Config3D) ([]*dump.State, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	states := make([]*dump.State, 0, c.D.P())
	for rank := 0; rank < c.D.P(); rank++ {
		p, err := c.NewProgram(rank)
		if err != nil {
			return nil, err
		}
		states = append(states, p.DumpState(0, 0))
	}
	return states, nil
}

// Result3D is a gathered global 3D solution.
type Result3D struct {
	NX, NY, NZ      int
	Rho, Vx, Vy, Vz []float64
	Steps           int
}

// At indexes a gathered 3D field.
func (r *Result3D) At(f []float64, x, y, z int) float64 {
	return f[(z*r.NY+y)*r.NX+x]
}

// Gather3D assembles the global 3D fields.
func Gather3D(c *Config3D, progs []*Program3D, steps int) *Result3D {
	n := c.D.GX * c.D.GY * c.D.GZ
	res := &Result3D{
		NX: c.D.GX, NY: c.D.GY, NZ: c.D.GZ,
		Rho: make([]float64, n), Vx: make([]float64, n),
		Vy: make([]float64, n), Vz: make([]float64, n),
		Steps: steps,
	}
	for _, p := range progs {
		rho, vx, vy, vz := fields3D(p.M)
		if rho == nil {
			continue
		}
		sub := p.Sub
		for z := 0; z < sub.NZ; z++ {
			for y := 0; y < sub.NY; y++ {
				for x := 0; x < sub.NX; x++ {
					g := ((sub.Z0+z)*c.D.GY+(sub.Y0+y))*c.D.GX + (sub.X0 + x)
					res.Rho[g] = rho.At(x, y, z)
					res.Vx[g] = vx.At(x, y, z)
					res.Vy[g] = vy.At(x, y, z)
					res.Vz[g] = vz.At(x, y, z)
				}
			}
		}
	}
	return res
}

// RunSequential3D executes the decomposed 3D problem in phase lockstep.
func RunSequential3D(c *Config3D, steps int) (*Result3D, []*Program3D, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	progs, err := buildPrograms(c.D.P(), c.NewProgram)
	if err != nil {
		return nil, nil, err
	}
	if err := stepSequential(progs, steps); err != nil {
		return nil, nil, err
	}
	return Gather3D(c, progs, steps), progs, nil
}

// RunParallel3D runs the decomposed 3D problem with one goroutine per box.
func RunParallel3D(c *Config3D, steps int, factory TransportFactory) (*Result3D, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	progs, err := buildPrograms(c.D.P(), c.NewProgram)
	if err != nil {
		return nil, err
	}
	if err := runParallel(progs, steps, factory); err != nil {
		return nil, err
	}
	return Gather3D(c, progs, steps), nil
}
