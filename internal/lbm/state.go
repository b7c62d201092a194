package lbm

import "fmt"

// Method names in dump files.
const (
	method2D = "lb2d"
	method3D = "lb3d"
)

// Dump field names: the fluid variables, then the populations f0..f(Q-1).
var (
	fieldNames2D = dumpFieldNames(Q2, "rho", "vx", "vy")
	fieldNames3D = dumpFieldNames(Q3, "rho", "vx", "vy", "vz")
)

func dumpFieldNames(q int, names ...string) []string {
	for i := 0; i < q; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	return names
}

// populations appends the populations' live storage to the fluid
// variables': the dump field arrays, in fieldNames2D/3D order.
func populations[F interface{ Data() []float64 }](arrays [][]float64, pops []F) [][]float64 {
	for _, f := range pops {
		arrays = append(arrays, f.Data())
	}
	return arrays
}

// DumpSchema2D returns what a Solver2D dump holds: the method name and the
// field names (shared; not to be modified). Code that builds or checks dumps
// without a solver at hand (the resize re-cut) reads it from here.
func DumpSchema2D() (method string, fields []string) { return method2D, fieldNames2D }

// DumpSchema3D is DumpSchema2D for Solver3D.
func DumpSchema3D() (method string, fields []string) { return method3D, fieldNames3D }

// MethodName identifies the 2D lattice Boltzmann method in dump files.
func (s *Solver2D) MethodName() string { return method2D }

// StateFields returns DumpSchema2D's field names and the live storage of
// each, ghosts included, in that order: the fluid variables rho, vx, vy,
// then the populations. The driver fills, gathers, dumps and restores a
// rank through it.
func (s *Solver2D) StateFields() (names []string, arrays [][]float64) {
	return fieldNames2D, populations([][]float64{s.Rho.Data(), s.Vx.Data(), s.Vy.Data()}, s.F[:])
}

// ClearScratch zeroes what the solver holds beyond its StateFields — the
// post-shift buffers, the exchange buffer and the phase-1 windows — as
// NewGeometry2D leaves them, so a solver restored after use equals a fresh
// one restored from the same dump.
func (s *Solver2D) ClearScratch() {
	for _, f := range s.nF {
		clear(f.Data())
	}
	for _, w := range s.windows {
		clear(w)
	}
	s.xbuf = s.xbuf[:0]
	s.claimed.Store(0)
}

// MethodName identifies the 3D lattice Boltzmann method in dump files.
func (s *Solver3D) MethodName() string { return method3D }

// StateFields is Solver2D.StateFields for rho, vx, vy, vz and the
// populations.
func (s *Solver3D) StateFields() (names []string, arrays [][]float64) {
	return fieldNames3D, populations([][]float64{s.Rho.Data(), s.Vx.Data(), s.Vy.Data(), s.Vz.Data()}, s.F[:])
}

// ClearScratch is Solver2D.ClearScratch for the post-shift buffers, the
// filter's ring and the exchange buffer.
func (s *Solver3D) ClearScratch() {
	for _, f := range s.nF {
		clear(f.Data())
	}
	clear(s.filterBuf)
	s.xbuf = s.xbuf[:0]
}
