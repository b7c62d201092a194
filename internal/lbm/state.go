package lbm

import (
	"fmt"

	"repro/internal/dump"
)

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

// FluidFields returns the live storage (ghosts included) of the fluid
// variables rho, vx, vy. The driver fills and gathers through it.
func (s *Solver2D) FluidFields() [][]float64 {
	return [][]float64{s.Rho.Data(), s.Vx.Data(), s.Vy.Data()}
}

// DumpFields returns deep copies of the populations and fluid variables
// (raw storage, ghosts included).
func (s *Solver2D) DumpFields() map[string][]float64 {
	return dump.CopyFields(fieldNames2D, populations(s.FluidFields(), s.F[:]))
}

// RestoreFields reloads populations and fluid variables from a dump.
func (s *Solver2D) RestoreFields(fields map[string][]float64) error {
	return dump.RestoreFields(fieldNames2D, populations(s.FluidFields(), s.F[:]), fields)
}

// MethodName identifies the 3D lattice Boltzmann method in dump files.
func (s *Solver3D) MethodName() string { return method3D }

// FluidFields is Solver2D.FluidFields for rho, vx, vy, vz.
func (s *Solver3D) FluidFields() [][]float64 {
	return [][]float64{s.Rho.Data(), s.Vx.Data(), s.Vy.Data(), s.Vz.Data()}
}

// DumpFields returns deep copies of the 3D populations and fluid variables.
func (s *Solver3D) DumpFields() map[string][]float64 {
	return dump.CopyFields(fieldNames3D, populations(s.FluidFields(), s.F[:]))
}

// RestoreFields reloads the 3D populations and fluid variables.
func (s *Solver3D) RestoreFields(fields map[string][]float64) error {
	return dump.RestoreFields(fieldNames3D, populations(s.FluidFields(), s.F[:]), fields)
}
