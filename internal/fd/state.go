package fd

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

// StateFields returns DumpSchema2D's field names and the live storage of
// each, ghosts included, in that order: the fluid variables rho, vx, vy,
// which are everything a dump holds. The driver fills, gathers, dumps and
// restores a rank through it.
func (s *Solver2D) StateFields() (names []string, arrays [][]float64) {
	return fieldNames2D, [][]float64{s.Rho.Data(), s.Vx.Data(), s.Vy.Data()}
}

// ClearScratch zeroes what the solver holds beyond its StateFields — the
// ring's storage and the exchange buffer — as NewGeometry2D leaves them,
// so a solver restored after use equals a fresh one restored from the
// same dump.
func (s *Solver2D) ClearScratch() {
	clear(s.buf)
	s.xbuf = s.xbuf[:0]
}

// MethodName identifies the 3D finite-difference method in dump files.
func (s *Solver3D) MethodName() string { return method3D }

// StateFields is Solver2D.StateFields for rho, vx, vy, vz.
func (s *Solver3D) StateFields() (names []string, arrays [][]float64) {
	return fieldNames3D, [][]float64{s.Rho.Data(), s.Vx.Data(), s.Vy.Data(), s.Vz.Data()}
}

// ClearScratch is Solver2D.ClearScratch for the 3D ring.
func (s *Solver3D) ClearScratch() {
	clear(s.buf)
	s.xbuf = s.xbuf[:0]
}
