package fd

import "repro/internal/dump"

// Method and field names in dump files.
const (
	method2D = "fd2d"
	method3D = "fd3d"
)

var (
	fieldNames2D = []string{"rho", "vx", "vy"}
	fieldNames3D = []string{"rho", "vx", "vy", "vz"}
)

// DumpSchema2D returns what a Solver2D dump holds: the method name and the
// field names (shared; not to be modified). Code that builds or checks dumps
// without a solver at hand (the resize re-cut) reads it from here.
func DumpSchema2D() (method string, fields []string) { return method2D, fieldNames2D }

// DumpSchema3D is DumpSchema2D for Solver3D.
func DumpSchema3D() (method string, fields []string) { return method3D, fieldNames3D }

// MethodName identifies the 2D finite-difference method in dump files.
func (s *Solver2D) MethodName() string { return method2D }

// FluidFields returns the live storage (ghosts included) of the fluid
// variables rho, vx, vy — which is also everything a dump holds, in
// DumpSchema2D order. The driver fills and gathers through it.
func (s *Solver2D) FluidFields() [][]float64 {
	return [][]float64{s.Rho.Data(), s.Vx.Data(), s.Vy.Data()}
}

// DumpFields returns deep copies of the raw field storage (ghosts
// included), keyed by canonical names.
func (s *Solver2D) DumpFields() map[string][]float64 {
	return dump.CopyFields(fieldNames2D, s.FluidFields())
}

// RestoreFields reloads raw field storage from a dump. The next-step
// buffers are not in a dump; the next Compute pairs their ghosts with the
// restored fields' (pairGhosts).
func (s *Solver2D) RestoreFields(fields map[string][]float64) error {
	s.ghostsPaired = false
	return dump.RestoreFields(fieldNames2D, s.FluidFields(), fields)
}

// MethodName identifies the 3D finite-difference method in dump files.
func (s *Solver3D) MethodName() string { return method3D }

// FluidFields is Solver2D.FluidFields for rho, vx, vy, vz.
func (s *Solver3D) FluidFields() [][]float64 {
	return [][]float64{s.Rho.Data(), s.Vx.Data(), s.Vy.Data(), s.Vz.Data()}
}

// DumpFields returns deep copies of the raw 3D field storage.
func (s *Solver3D) DumpFields() map[string][]float64 {
	return dump.CopyFields(fieldNames3D, s.FluidFields())
}

// RestoreFields reloads raw 3D field storage from a dump (see the 2D one).
func (s *Solver3D) RestoreFields(fields map[string][]float64) error {
	s.ghostsPaired = false
	return dump.RestoreFields(fieldNames3D, s.FluidFields(), fields)
}
