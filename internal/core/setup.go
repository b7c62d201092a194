package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fd"
	"repro/internal/fluid"
	"repro/internal/grid"
	"repro/internal/lbm"
	"repro/internal/msg"
	"repro/internal/pool"
)

// Method names accepted by the configs.
const (
	MethodFD = "fd" // explicit finite differences
	MethodLB = "lb" // lattice Boltzmann
)

// Config2D describes a complete 2D simulation: the initialization program's
// output (global mask and initial fields), the physical parameters, the
// numerical method, and the decomposition.
type Config2D struct {
	Method string // MethodFD or MethodLB
	Par    fluid.Params
	Mask   *fluid.Mask2D
	D      *decomp.Decomp2D

	// Workers is the intra-rank worker-slab budget handed to each rank's
	// solver; 0 means an even share of GOMAXPROCS across the ranks
	// (pool.DefaultPerRank). Fields are bit-identical at every value.
	Workers int

	// Initial fields at global coordinates; nil means rho = Rho0, V = 0.
	InitRho, InitVx, InitVy func(x, y int) float64
}

// Validate checks the configuration.
func (c *Config2D) Validate() error {
	if c.Method != MethodFD && c.Method != MethodLB {
		return fmt.Errorf("core: unknown method %q", c.Method)
	}
	if c.Mask == nil || c.D == nil {
		return fmt.Errorf("core: mask and decomposition are required")
	}
	if c.Mask.NX != c.D.GX || c.Mask.NY != c.D.GY {
		return fmt.Errorf("core: mask %dx%d does not match decomposition grid %dx%d",
			c.Mask.NX, c.Mask.NY, c.D.GX, c.D.GY)
	}
	return c.Par.Check()
}

// wrapCoord folds a global coordinate into [0, g) on periodic axes.
func wrapCoord(v, g int, periodic bool) int {
	if !periodic {
		return v
	}
	return ((v % g) + g) % g
}

// LocalMask2D adapts the global mask to one subregion's local coordinates,
// respecting the decomposition's periodic axes. Coordinates outside a
// non-periodic domain read as Wall (the region is enclosed by walls).
func LocalMask2D(d *decomp.Decomp2D, sub *decomp.Subregion2D, m *fluid.Mask2D) func(x, y int) fluid.CellType {
	return func(x, y int) fluid.CellType {
		gx := wrapCoord(sub.X0+x, d.GX, d.PeriodicX)
		gy := wrapCoord(sub.Y0+y, d.GY, d.PeriodicY)
		return m.At(gx, gy)
	}
}

// fill writes f, evaluated at wrapped global coordinates, into every node of
// one rank's field, ghosts included: a ghost then holds its neighbour's
// edge value, exactly the state an exchange would have produced. Nodes
// beyond a non-periodic domain, and every node when f is nil, get def.
func (c *Config2D) fill(dst *grid.Field2D, sub *decomp.Subregion2D, f func(x, y int) float64, def float64) {
	if f == nil {
		dst.Fill(def)
		return
	}
	for y := -1; y <= sub.NY; y++ {
		gy := wrapCoord(sub.Y0+y, c.D.GY, c.D.PeriodicY)
		row := dst.Data()[dst.Idx(-1, y):][:sub.NX+2]
		for i := range row {
			gx := wrapCoord(sub.X0+i-1, c.D.GX, c.D.PeriodicX)
			if gx < 0 || gx >= c.D.GX || gy < 0 || gy >= c.D.GY {
				row[i] = def
			} else {
				row[i] = f(gx, gy)
			}
		}
	}
}

// workerBudget resolves the intra-rank worker count: the explicit Workers
// knob if set, else an even share of GOMAXPROCS across the ranks so
// co-scheduled ranks don't oversubscribe the machine.
func (c *Config2D) workerBudget() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return pool.DefaultPerRank(c.D.P())
}

// geometry builds a rank's method with everything that is not state: storage
// allocated, mask classified, worker budget set. The two ways to a Program
// start here — NewMethod2D adds the initial condition, RestoreProgram loads
// a dump — so a rebuild never computes a state it is about to overwrite.
func (c *Config2D) geometry(rank int) (Method2D, error) {
	sub := c.D.ByRank(rank)
	mask := LocalMask2D(c.D, sub, c.Mask)
	var m Method2D
	switch c.Method {
	case MethodFD:
		s, err := fd.NewGeometry2D(sub.NX, sub.NY, c.Par, mask)
		if err != nil {
			return nil, err
		}
		m = s
	case MethodLB:
		s, err := lbm.NewGeometry2D(sub.NX, sub.NY, c.Par, mask)
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

// fields2D returns a method's fluid variables (nil for a foreign method).
func fields2D(m Method2D) (rho, vx, vy *grid.Field2D) {
	switch s := m.(type) {
	case *fd.Solver2D:
		return s.Rho, s.Vx, s.Vy
	case *lbm.Solver2D:
		return s.Rho, s.Vx, s.Vy
	}
	return nil, nil, nil
}

// NewMethod2D builds the numerical method instance for one subregion,
// with fields initialized from the config: the combined initialization +
// decomposition programs of section 4.1 for a fresh start, plus the
// intra-rank worker budget.
func (c *Config2D) NewMethod2D(rank int) (Method2D, error) {
	m, err := c.geometry(rank)
	if err != nil {
		return nil, err
	}
	sub := c.D.ByRank(rank)
	rho, vx, vy := fields2D(m)
	c.fill(rho, sub, c.InitRho, c.Par.Rho0)
	c.fill(vx, sub, c.InitVx, 0)
	c.fill(vy, sub, c.InitVy, 0)
	if s, ok := m.(*lbm.Solver2D); ok {
		s.InitEquilibrium()
	}
	return m, nil
}

// NewProgram builds the Program for one rank at the initial condition.
func (c *Config2D) NewProgram(rank int) (*Program2D, error) {
	m, err := c.NewMethod2D(rank)
	if err != nil {
		return nil, err
	}
	return NewProgram2D(m, c.D, rank), nil
}

// RestoreProgram builds the Program a dump belongs to: the rank's geometry
// with the dumped state loaded into it. No initial condition is evaluated —
// RestoreState overwrites every array one would write, ghosts included,
// and everything else a solver owns is zero after either construction.
func (c *Config2D) RestoreProgram(st *dump.State) (*Program2D, error) {
	if st.Rank < 0 || st.Rank >= c.D.P() {
		return nil, fmt.Errorf("core: dump of rank %d, decomposition has %d ranks", st.Rank, c.D.P())
	}
	m, err := c.geometry(st.Rank)
	if err != nil {
		return nil, err
	}
	p := NewProgram2D(m, c.D, st.Rank)
	if err := p.RestoreState(st); err != nil {
		return nil, err
	}
	return p, nil
}

// Decompose2D is the decomposition program: it produces one dump.State per
// active subregion, each containing everything a workstation needs to
// participate.
func Decompose2D(c *Config2D) ([]*dump.State, error) {
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

// Submit2D is the job-submit program for one rank: it rebuilds the Program
// from a dump file and wraps it in a Worker whose channels are opened
// through the factory.
func Submit2D(c *Config2D, st *dump.State, factory TransportFactory, events chan<- Event) (*Worker, error) {
	p, err := c.RestoreProgram(st)
	if err != nil {
		return nil, err
	}
	return NewWorkerAt(p, factory, st.Epoch, events, st.Step)
}

// Result2D is a gathered global solution.
type Result2D struct {
	NX, NY        int
	Rho, Vx, Vy   []float64 // row-major interior fields
	Vorticity     []float64 // curl of velocity (centered differences)
	Steps         int
	ActiveRegions int
}

// At indexes a gathered field.
func (r *Result2D) At(f []float64, x, y int) float64 { return f[y*r.NX+x] }

// Gather2D assembles the global fields from per-rank programs, inverting
// the decomposition.
func Gather2D(c *Config2D, progs []*Program2D, steps int) *Result2D {
	res := &Result2D{
		NX: c.D.GX, NY: c.D.GY,
		Rho:           make([]float64, c.D.GX*c.D.GY),
		Vx:            make([]float64, c.D.GX*c.D.GY),
		Vy:            make([]float64, c.D.GX*c.D.GY),
		Vorticity:     make([]float64, c.D.GX*c.D.GY),
		Steps:         steps,
		ActiveRegions: c.D.P(),
	}
	for i := range res.Rho {
		res.Rho[i] = c.Par.Rho0
	}
	for _, p := range progs {
		rho, vx, vy := fields2D(p.M)
		if rho == nil {
			continue
		}
		sub := p.Sub
		for y := 0; y < sub.NY; y++ {
			for x := 0; x < sub.NX; x++ {
				g := (sub.Y0+y)*c.D.GX + (sub.X0 + x)
				res.Rho[g] = rho.At(x, y)
				res.Vx[g] = vx.At(x, y)
				res.Vy[g] = vy.At(x, y)
			}
		}
	}
	// Vorticity from the gathered velocity (interior nodes only).
	for y := 1; y < res.NY-1; y++ {
		for x := 1; x < res.NX-1; x++ {
			g := y*res.NX + x
			res.Vorticity[g] = 0.5*(res.Vy[g+1]-res.Vy[g-1]) - 0.5*(res.Vx[g+res.NX]-res.Vx[g-res.NX])
		}
	}
	return res
}

// RunSequential2D executes the decomposed problem in one goroutine,
// delivering messages directly between programs in phase lockstep. It is
// the serial reference: identical numerics to the parallel run (including
// the filter's seam behaviour), with no transports involved.
func RunSequential2D(c *Config2D, steps int) (*Result2D, []*Program2D, error) {
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
	return Gather2D(c, progs, steps), progs, nil
}

// buildPrograms builds the programs of ranks 0..p-1.
func buildPrograms[P Program](p int, build func(rank int) (P, error)) ([]P, error) {
	progs := make([]P, p)
	for rank := range progs {
		prog, err := build(rank)
		if err != nil {
			return nil, err
		}
		progs[rank] = prog
	}
	return progs, nil
}

// stepSequential advances a set of programs in phase lockstep.
func stepSequential[P Program](progs []P, steps int) error {
	if len(progs) == 0 {
		return fmt.Errorf("core: no programs")
	}
	phases := progs[0].Phases()
	for s := 0; s < steps; s++ {
		for ph := 0; ph < phases; ph++ {
			for _, p := range progs {
				p.Compute(ph)
			}
			// Deliver all sends after all computes: every payload is
			// copied immediately, so in-place solver buffers are safe.
			type delivery struct {
				to, dir int
				data    []float64
			}
			var inbox []delivery
			for _, p := range progs {
				for _, snd := range p.Sends(ph) {
					inbox = append(inbox, delivery{
						to: snd.Peer, dir: snd.Dir,
						data: append([]float64(nil), snd.Data...),
					})
				}
			}
			for _, d := range inbox {
				progs[d.to].Unpack(ph, d.dir, d.data)
			}
		}
	}
	return nil
}

// RunParallel2D runs the decomposed problem with one goroutine per
// subregion over the given transport factory (channel hub or TCP): the
// job-submit program plus the parallel program of section 4.
func RunParallel2D(c *Config2D, steps int, factory TransportFactory) (*Result2D, error) {
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
	return Gather2D(c, progs, steps), nil
}

// runParallel integrates the programs with one worker goroutine each and
// returns the first worker error once all of them have stopped.
func runParallel[P Program](progs []P, steps int, factory TransportFactory) error {
	workers := make([]*Worker, len(progs))
	events := make(chan Event, 4*len(progs))
	for rank, p := range progs {
		w, err := NewWorker(p, factory, 0, events)
		if err != nil {
			return err
		}
		workers[rank] = w
	}
	errs := make(chan error, len(workers))
	for _, w := range workers {
		go func(w *Worker) {
			errs <- w.RunSteps(steps)
		}(w)
	}
	var first error
	for range workers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	for _, w := range workers {
		w.Close()
	}
	return first
}

// HubFactory returns a TransportFactory over a fresh in-process hub.
func HubFactory() TransportFactory {
	hub := msg.NewHub()
	return func(rank, epoch int) (msg.Transport, error) {
		return hub.Join(rank), nil
	}
}
