// Package core is the distributed simulation driver of sections 4-5: it
// binds a numerical method (finite differences or lattice Boltzmann), a
// static rectangular decomposition and a message transport into the
// parallel program whose cycle is "compute locally, communicate with
// neighbours".
//
// The paper's four control modules map onto this package as follows:
//
//   - initialization program  -> the caller builds a global initial state
//     (cmd/fluidsim and the package examples construct masks and fields);
//   - decomposition program   -> Decompose2D, which produces one
//     dump.State per active subregion;
//   - job-submit program      -> Job: NewJob2D/NewJob3D create the
//     workers and open their communication channels, Job.Start runs them
//     from the initial condition and Job.Resume from a set of dumps.
//     RunParallel2D/3D and cmd/fluidsim drive a Job too;
//   - monitoring program      -> the farm (farm/reclaim.go), which moves
//     ranks through the migration protocol in coordinator.go: this
//     package runs a job, and the farm places it.
//
// A Program is one parallel subprocess's view of the computation; Worker
// runs a Program against a Transport. The same Program code runs under the
// in-process channel transport, the TCP transport, and the serial
// reference executor, which is how the paper's "serial program = parallel
// program minus communication" modularity is expressed here.
//
// The driver is written once, with the dimension as a value: a 2D
// subregion is a box one plane thick (lattice.go), the solvers of both
// dimensions implement one contract (Method), and everything above
// Compute(phase) — Program, build, restore, decompose, gather, re-split,
// run, job — has one body. The 2D/3D names are its two instantiations.
package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/dump"
)

// Program is one subprocess's computation: a numerical method bound to a
// subregion of a decomposition. Direction codes are opaque to the Worker;
// they only need to match between a sender's Sends and the receiving
// Program's Unpack.
type Program interface {
	// Rank returns the dense rank of the subregion.
	Rank() int
	// Phases returns the number of compute phases per integration step.
	Phases() int
	// Compute runs one local phase.
	Compute(phase int)
	// Sends returns the messages to emit after a phase, at most one per
	// direction. The returned payload slices are only valid until the next
	// call.
	Sends(phase int) []Send
	// Expects returns the (peer, dirCode) pairs the Program must receive
	// after a phase before the next phase may start, at most one per
	// direction.
	Expects(phase int) []Expect
	// Unpack consumes a received payload for a phase and direction code.
	// data belongs to the transport, which reuses it once Unpack returns:
	// it must not be kept.
	Unpack(phase int, dirCode int, data []float64)
	// DumpState serializes the full state for a dump file.
	DumpState(step, epoch int) *dump.State
	// RestoreState reloads a dump produced by DumpState.
	RestoreState(st *dump.State) error
}

// Send is one outgoing halo message.
type Send struct {
	Peer int // destination rank
	Dir  int // direction code from the receiver's perspective
	Data []float64
}

// Expect is one incoming halo message the Program waits for.
type Expect struct {
	Peer int
	Dir  int
}

// Method is the per-subregion contract all four solvers implement.
type Method interface {
	Phases() int
	// ExchangeDirs lists the neighbours exchanged with after a phase, in
	// message order; empty for a phase that does not communicate. The slice
	// is shared and must not be modified. The per-phase sets differ between
	// the methods (all sides and corners at once, or the LB sweeps).
	ExchangeDirs(phase int) []decomp.Dir
	Compute(phase int)
	Pack(phase int, dir decomp.Dir, buf []float64) []float64
	Unpack(phase int, dir decomp.Dir, buf []float64)
	MethodName() string
	// StateFields returns the dump's field names and the live storage of
	// each, ghosts included, in the layout of a dump array: rho, vx,
	// vy[, vz] first, then whatever else the method's state holds.
	StateFields() (names []string, arrays [][]float64)
	// ClearScratch zeroes everything beyond the StateFields, as the
	// method's geometry constructor leaves it.
	ClearScratch()
	// SetWorkers sets the intra-rank worker-slab budget for the compute
	// phases. Results are bit-identical at every value (see internal/pool).
	SetWorkers(n int)
}

// peer is the neighbour in one direction: its rank (-1 where the lattice
// ends or the subregion is inactive) and the direction it sees us in.
type peer struct{ rank, back int }

// program is the Program of either dimension: a method bound to one rank
// of a decomposition, its interior box and its neighbours looked up once.
// Program2D and Program3D embed it.
type program struct {
	M   Method
	D   *decomp.Decomp
	Sub *decomp.Subregion

	at   box
	peer [decomp.NumDirs]peer

	// Reused by Sends and Expects, so a steady step allocates nothing.
	buf     []float64
	sends   []Send
	expects []Expect
}

// bind ties a method to the subregion with the given rank and records its
// active neighbours; a direction outside the decomposition's stencil has
// none.
func bind(m Method, d *decomp.Decomp, rank int) program {
	sub := d.ByRank(rank)
	p := program{M: m, D: d, Sub: sub, at: boxOf(sub)}
	for dir := range p.peer {
		p.peer[dir].rank = -1
		if n := d.Neighbor(sub, decomp.Dir(dir)); n != nil {
			p.peer[dir] = peer{rank: n.Rank, back: int(decomp.Dir(dir).Opposite())}
		}
	}
	return p
}

// Rank returns the subregion's dense rank.
func (p *program) Rank() int { return p.Sub.Rank }

// Phases returns the method's phase count.
func (p *program) Phases() int { return p.M.Phases() }

// Compute runs one local phase.
func (p *program) Compute(phase int) { p.M.Compute(phase) }

// Sends packs one message per neighbour the phase exchanges with. The
// direction code is the receiver's view: data sent toward dir arrives at
// the neighbour from dir.Opposite().
func (p *program) Sends(phase int) []Send {
	p.buf, p.sends = p.buf[:0], p.sends[:0]
	for _, dir := range p.M.ExchangeDirs(phase) {
		to := p.peer[dir]
		if to.rank < 0 {
			continue
		}
		start := len(p.buf)
		p.buf = p.M.Pack(phase, dir, p.buf)
		p.sends = append(p.sends, Send{Peer: to.rank, Dir: to.back, Data: p.buf[start:]})
	}
	return p.sends
}

// Expects lists the messages due after a phase: one from every neighbour
// it exchanges with, identified by the direction the neighbour lies in.
func (p *program) Expects(phase int) []Expect {
	p.expects = p.expects[:0]
	for _, dir := range p.M.ExchangeDirs(phase) {
		if from := p.peer[dir]; from.rank >= 0 {
			p.expects = append(p.expects, Expect{Peer: from.rank, Dir: int(dir)})
		}
	}
	return p.expects
}

// Unpack stores a received payload into the method's halo regions.
func (p *program) Unpack(phase int, dirCode int, data []float64) {
	p.M.Unpack(phase, decomp.Dir(dirCode), data)
}

// DumpState serializes the subregion state as deep copies, which stay
// valid while the rank computes on.
func (p *program) DumpState(step, epoch int) *dump.State { return p.dump(step, epoch, new(dump.State)) }

// dump is DumpState with the fields copied into into's arrays where they
// fit or, with into nil for a rank that stops computing, as views of its
// live arrays, valid until it is restored.
func (p *program) dump(step, epoch int, into *dump.State) *dump.State {
	names, arrays := p.M.StateFields()
	fields := make(map[string][]float64, len(names))
	for i, name := range names {
		if into != nil {
			arrays[i] = append(into.Fields[name][:0], arrays[i]...)
		}
		fields[name] = arrays[i]
	}
	return &dump.State{Rank: p.Sub.Rank, Step: step, Epoch: epoch, Method: p.M.MethodName(),
		NX: p.at.nx, NY: p.at.ny, NZ: p.at.nz, Fields: fields}
}

// RestoreState reloads a dump into the method, bit for bit. A dump whose
// every field is a view of the array it would be copied into — the
// handover of a rank that stopped computing — is already in place: the
// Program is as it was dumped and computes on untouched, as a Snapshot's
// does. Any other dump first clears everything it does not hold, so a used
// Program ends equal to a fresh one restored from the same dump. A dump
// that does not fit is refused before anything changes.
func (p *program) RestoreState(st *dump.State) error {
	if err := p.fits(st); err != nil {
		return err
	}
	names, arrays := p.M.StateFields()
	inPlace := true
	for i, name := range names {
		inPlace = inPlace && &st.Fields[name][0] == &arrays[i][0]
	}
	if inPlace {
		return nil
	}
	p.M.ClearScratch()
	p.buf, p.sends, p.expects = p.buf[:0], p.sends[:0], p.expects[:0]
	for i, name := range names {
		copy(arrays[i], st.Fields[name])
	}
	return nil
}

// rebind binds a retired Program to the same box of another decomposition
// and clears all but its state arrays, which the caller writes whole.
func (p *program) rebind(d *decomp.Decomp) {
	*p = bind(p.M, d, p.Sub.Rank)
	p.M.ClearScratch()
}

// interior is the box the Program computes.
func (p *program) interior() box { return p.at }

// fits refuses a dump RestoreState cannot load: another method, another
// subregion, or a field missing or of another length.
func (p *program) fits(st *dump.State) error {
	if st.Method != p.M.MethodName() {
		return fmt.Errorf("core: dump method %q, solver is %q", st.Method, p.M.MethodName())
	}
	if st.NX != p.at.nx || st.NY != p.at.ny || st.NZ != p.at.nz {
		return fmt.Errorf("core: dump geometry %dx%dx%d, subregion is %dx%dx%d",
			st.NX, st.NY, st.NZ, p.at.nx, p.at.ny, p.at.nz)
	}
	names, arrays := p.M.StateFields()
	for i, name := range names {
		if src, ok := st.Fields[name]; !ok || len(src) != len(arrays[i]) {
			return fmt.Errorf("core: dump field %q missing or not %d values long", name, len(arrays[i]))
		}
	}
	return nil
}

// start writes the initial condition into a program built at rest: every
// fluid variable filled from its initial field (nil: rho0 in rho, zero in
// the velocities), then a lattice Boltzmann method's populations set to
// the equilibrium of those fields.
func (p *program) start(lat lattice, initial []initField, rho0 float64) {
	_, arrays := p.M.StateFields()
	for k, f := range initial {
		def := 0.0
		if k == 0 {
			def = rho0
		}
		lat.fill(arrays[k], p.at, f, def)
	}
	if lb, ok := p.M.(interface{ InitEquilibrium() }); ok {
		lb.InitEquilibrium()
	}
}

// stitch copies the interior of every fluid variable into the global
// arrays, given in StateFields order.
func (p *program) stitch(lat lattice, global [][]float64) {
	_, arrays := p.M.StateFields()
	for k, g := range global {
		lat.stitch(g, p.at, arrays[k])
	}
}

// Program2D binds a method to one subregion of a planar decomposition.
type Program2D struct{ program }

// NewProgram2D builds the Program for the subregion with the given rank.
func NewProgram2D(m Method, d *decomp.Decomp, rank int) *Program2D {
	return &Program2D{bind(m, d, rank)}
}

// Program3D binds a method to one box of a box decomposition.
type Program3D struct{ program }

// NewProgram3D builds the Program for the box with the given rank.
func NewProgram3D(m Method, d *decomp.Decomp, rank int) *Program3D {
	return &Program3D{bind(m, d, rank)}
}
