package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/fd"
	"repro/internal/fluid"
	"repro/internal/lbm"
)

// Config3D describes a complete 3D simulation.
type Config3D struct {
	Method string
	Par    fluid.Params
	Mask   *fluid.Mask3D
	D      *decomp.Decomp

	// Workers is the intra-rank worker-slab budget per solver; 0 means an
	// even share of GOMAXPROCS across ranks (workerBudget).
	Workers int

	InitRho, InitVx, InitVy, InitVz func(x, y, z int) float64
}

// Validate checks the configuration.
func (c *Config3D) Validate() error {
	if c.Method != MethodFD && c.Method != MethodLB {
		return fmt.Errorf("core: unknown method %q", c.Method)
	}
	if c.Mask == nil || c.D == nil {
		return fmt.Errorf("core: mask and decomposition are required")
	}
	if c.D.Planar() {
		return fmt.Errorf("core: 3D config on the planar decomposition %v", c.D)
	}
	if c.Mask.NX != c.D.GX || c.Mask.NY != c.D.GY || c.Mask.NZ != c.D.GZ {
		return fmt.Errorf("core: mask %dx%dx%d does not match grid %dx%dx%d",
			c.Mask.NX, c.Mask.NY, c.Mask.NZ, c.D.GX, c.D.GY, c.D.GZ)
	}
	return c.Par.Check()
}

// LocalMask3D adapts the global mask to one box's local coordinates,
// respecting the decomposition's periodic axes. Coordinates outside a
// non-periodic domain read as Wall (the region is enclosed by walls).
func LocalMask3D(d *decomp.Decomp, sub *decomp.Subregion, m *fluid.Mask3D) func(x, y, z int) fluid.CellType {
	return func(x, y, z int) fluid.CellType {
		return m.At(wrapCoord(sub.X0+x, d.GX, d.PeriodicX), wrapCoord(sub.Y0+y, d.GY, d.PeriodicY),
			wrapCoord(sub.Z0+z, d.GZ, d.PeriodicZ))
	}
}

func (c *Config3D) decomposition() *decomp.Decomp { return c.D }

func (c *Config3D) over(d *decomp.Decomp) setup[*Program3D] {
	next := *c
	next.D = d
	return &next
}

func (c *Config3D) lattice() lattice { return latticeOf(c.D, 1) }

func (c *Config3D) geometry(rank int) (*Program3D, error) {
	sub := c.D.ByRank(rank)
	mask := LocalMask3D(c.D, sub, c.Mask)
	var m Method
	var err error
	switch c.Method {
	case MethodFD:
		m, err = fd.NewGeometry3D(sub.NX, sub.NY, sub.NZ, c.Par, mask)
	case MethodLB:
		m, err = lbm.NewGeometry3D(sub.NX, sub.NY, sub.NZ, c.Par, mask)
	default:
		err = fmt.Errorf("core: unknown method %q", c.Method)
	}
	if err != nil {
		return nil, err
	}
	m.SetWorkers(c.workerBudget())
	return NewProgram3D(m, c.D, rank), nil
}

func (c *Config3D) initial() []initField {
	return []initField{c.InitRho, c.InitVx, c.InitVy, c.InitVz}
}

func (c *Config3D) physics() fluid.Params { return c.Par }

func (c *Config3D) dumpSchema() (method string, fields []string) {
	if c.Method == MethodFD {
		return fd.DumpSchema3D()
	}
	return lbm.DumpSchema3D()
}

func (c *Config3D) workerBudget() int { return workerBudget(c.Workers, c.D.P()) }

// NewProgram builds the Program for one rank at the initial condition.
func (c *Config3D) NewProgram(rank int) (*Program3D, error) { return newProgram(c, rank) }

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
	lat, global := c.lattice(), [][]float64{res.Rho, res.Vx, res.Vy, res.Vz}
	for _, p := range progs {
		p.stitch(lat, global)
	}
	return res
}

// RunSequential3D executes the decomposed 3D problem in phase lockstep.
func RunSequential3D(c *Config3D, steps int) (*Result3D, []*Program3D, error) {
	return run(c, steps, Gather3D)
}

// RunParallel3D runs the decomposed 3D problem with one goroutine per box.
func RunParallel3D(c *Config3D, steps int, factory TransportFactory) (*Result3D, error) {
	return runJob(c, steps, factory, Gather3D)
}
