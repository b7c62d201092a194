// Package decomp implements the static rectangular domain decomposition of
// the paper: a global uniform grid is split into a (J x K x L) array of
// boxes and each active box is assigned to one parallel subprocess
// (sections 2-3). The 2D decompositions of the paper, (J x K), are the
// same thing one plane thick: JZ = GZ = 1, every subregion at K = 0 with
// NZ = 1. Subregions are identical-shaped under the uniform splitters
// (New2D/New3D); the speed-weighted shapes of weighted.go size spans
// proportionally to per-rank host speed for heterogeneous pools, with
// uniform splitting as the degenerate equal-weights case.
//
// The package also computes the decomposition-geometry constant m of
// section 8 (the surface factor in N_c = m N^{1/2} or m N^{2/3}), the
// neighbour topology under star or full stencils, and the identification of
// inactive subregions (subregions that are entirely solid wall, which the
// paper's figure-2 run leaves unassigned: 15 of 24 subregions employed).
package decomp

import (
	"fmt"
	"strings"
)

// Stencil identifies the local-interaction pattern (figure 4 of the paper).
type Stencil int

const (
	// Star couples a node to neighbours along the coordinate axes only.
	Star Stencil = iota
	// Full couples a node to all neighbours including the in-plane
	// diagonals.
	Full
)

func (s Stencil) String() string {
	if s == Star {
		return "star"
	}
	return "full"
}

// StencilFor returns the stencil a method's halo exchange needs, by the
// method's name in either plane ("lb", "lb2d", "lb3d" or "fd", "fd2d",
// "fd3d"): Full for lattice Boltzmann, whose diagonal populations cross
// subregion corners, Star for finite differences. A finite-difference run
// is also correct on a Full decomposition; a planar lattice Boltzmann run
// on a Star one never exchanges its corner populations. (The 3D lattice
// Boltzmann sweeps carry theirs through the faces, so on a box lattice
// either stencil serves.)
func StencilFor(method string) Stencil {
	if strings.HasPrefix(method, "lb") {
		return Full
	}
	return Star
}

// Dir is a neighbour direction: an offset of -1, 0 or +1 along each axis
// of the lattice. The six faces come first, then the four diagonals of the
// x-y plane that complete the full stencil. Its integer value is the
// direction code on the wire.
type Dir int

const (
	West  Dir = iota // -x
	East             // +x
	South            // -y
	North            // +y
	Down             // -z
	Up               // +z
	SouthWest
	SouthEast
	NorthWest
	NorthEast
	// NumDirs bounds a direction code.
	NumDirs int = iota
)

// dirTable is where a direction is spelled out: its name and offset.
// Opposite and String are read from it.
var dirTable = [NumDirs]struct {
	name       string
	dx, dy, dz int
}{
	West: {"W", -1, 0, 0}, East: {"E", 1, 0, 0},
	South: {"S", 0, -1, 0}, North: {"N", 0, 1, 0},
	Down: {"D", 0, 0, -1}, Up: {"U", 0, 0, 1},
	SouthWest: {"SW", -1, -1, 0}, SouthEast: {"SE", 1, -1, 0},
	NorthWest: {"NW", -1, 1, 0}, NorthEast: {"NE", 1, 1, 0},
}

// opposites pairs every direction with the one of negated offset.
var opposites = func() (opp [NumDirs]Dir) {
	for d, a := range dirTable {
		for o, b := range dirTable {
			if a.dx == -b.dx && a.dy == -b.dy && a.dz == -b.dz {
				opp[d] = Dir(o)
			}
		}
	}
	return opp
}()

// Opposite returns the direction pointing back at the sender; halo exchange
// pairs each send in direction d with a receive from Opposite(d).
func (d Dir) Opposite() Dir { return opposites[d] }

// Delta returns the (dx, dy, dz) lattice offset of direction d.
func (d Dir) Delta() (dx, dy, dz int) {
	e := &dirTable[d]
	return e.dx, e.dy, e.dz
}

func (d Dir) String() string {
	if d < 0 || int(d) >= NumDirs {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	return dirTable[d].name
}

// The direction lists, shared and in message order: the faces, whose first
// four are the star stencil of a plane, and the full stencil of a plane.
var (
	faces    = []Dir{West, East, South, North, Down, Up}
	fullDirs = []Dir{West, East, South, North, SouthWest, SouthEast, NorthWest, NorthEast}
)

// Dirs returns the in-plane directions of a stencil in a fixed order. The
// slice is shared and must not be modified.
func Dirs(s Stencil) []Dir {
	if s == Star {
		return faces[:4:4]
	}
	return fullDirs
}

// Faces returns the six face directions, the star stencil of a box, in a
// fixed order. The slice is shared and must not be modified.
func Faces() []Dir { return faces }

// Subregion describes one box of a decomposition. In a planar
// decomposition K = Z0 = 0 and NZ = 1.
type Subregion struct {
	Rank       int // dense rank among active subregions; -1 if inactive
	I, J, K    int // position in the decomposition lattice (column, row, plane)
	X0, Y0, Z0 int // global coordinates of the subregion's first interior node
	NX, NY, NZ int // interior node counts
	Active     bool
}

// Nodes returns the number of interior nodes N of the subregion, the
// parallel grain size of section 3.
func (s Subregion) Nodes() int { return s.NX * s.NY * s.NZ }

// Decomp is a (JX x JY x JZ) decomposition of a GX x GY x GZ global grid;
// "(5 x 4)" is JX = 5, JY = 4 and JZ = GZ = 1.
type Decomp struct {
	JX, JY, JZ int // subregion counts per axis
	GX, GY, GZ int // global grid size
	// Stencil says whether the in-plane diagonals are neighbours. The face
	// directions always are.
	Stencil Stencil

	// Periodic axes make the lattice wrap around, so the rightmost
	// subregion neighbours the leftmost. The channel test problem of
	// section 7 is periodic in the flow direction.
	PeriodicX, PeriodicY, PeriodicZ bool

	subs   []Subregion // row-major by (K, J, I), planes outermost
	active int
	planar bool // built from a shape without z spans
}

// New2D builds a uniform planar decomposition. The global grid need not
// divide evenly: the remainder nodes are distributed one per leading
// subregion, keeping shapes as close to identical as the paper's uniform
// scheme allows.
func New2D(jx, jy, gx, gy int, st Stencil) (*Decomp, error) {
	return newUniform(jx, jy, 0, gx, gy, 0, st)
}

// New3D builds a uniform box decomposition; remainders are distributed one
// node per leading subregion along each axis.
func New3D(jx, jy, jz, gx, gy, gz int) (*Decomp, error) {
	if jz < 1 {
		return nil, fmt.Errorf("decomp: invalid decomposition (%d x %d x %d)", jx, jy, jz)
	}
	return newUniform(jx, jy, jz, gx, gy, gz, Star)
}

func newUniform(jx, jy, jz, gx, gy, gz int, st Stencil) (*Decomp, error) {
	if jx <= 0 || jy <= 0 {
		return nil, fmt.Errorf("decomp: invalid decomposition (%d x %d x %d)", jx, jy, jz)
	}
	if gx < jx || gy < jy || gz < jz {
		return nil, fmt.Errorf("decomp: grid %dx%dx%d smaller than decomposition (%d x %d x %d)", gx, gy, gz, jx, jy, jz)
	}
	return NewShaped(UniformShape(jx, jy, jz, gx, gy, gz), st)
}

// span splits g nodes into p pieces; piece i gets its offset and length.
// The first g%p pieces are one node longer.
func span(g, p, i int) (off, n int) {
	base := g / p
	rem := g % p
	if i < rem {
		return i * (base + 1), base + 1
	}
	return rem*(base+1) + (i-rem)*base, base
}

// onePlane is the z axis of a planar decomposition.
var onePlane = []int{1}

// NewShaped builds a decomposition with explicit per-axis spans: planar
// when the shape has no z spans, a box lattice otherwise. The global grid
// is the sum of the spans; New2D and New3D are the uniform special case.
// Subregions stay contiguous (X0 of column i+1 is X0+NX of column i), so
// halo exchange works unchanged.
func NewShaped(sh Shape, st Stencil) (*Decomp, error) {
	if len(sh.X) == 0 || len(sh.Y) == 0 {
		return nil, fmt.Errorf("decomp: shape needs x and y spans (got %d/%d/%d)", len(sh.X), len(sh.Y), len(sh.Z))
	}
	sum := func(spans []int) (g int) {
		for _, n := range spans {
			g += n
		}
		return g
	}
	zs := sh.Z
	if len(zs) == 0 {
		zs = onePlane
	}
	d := &Decomp{
		JX: len(sh.X), JY: len(sh.Y), JZ: len(zs),
		GX: sum(sh.X), GY: sum(sh.Y), GZ: sum(zs),
		Stencil: st, planar: len(sh.Z) == 0,
	}
	if err := sh.Check(d.JX, d.JY, len(sh.Z), d.GX, d.GY, d.GZ); err != nil {
		return nil, err
	}
	d.subs = make([]Subregion, 0, d.Total())
	z0 := 0
	for k, nz := range zs {
		y0 := 0
		for j, ny := range sh.Y {
			x0 := 0
			for i, nx := range sh.X {
				d.subs = append(d.subs, Subregion{
					Rank: len(d.subs), I: i, J: j, K: k,
					X0: x0, Y0: y0, Z0: z0, NX: nx, NY: ny, NZ: nz,
					Active: true,
				})
				x0 += nx
			}
			y0 += ny
		}
		z0 += nz
	}
	d.active = len(d.subs)
	return d, nil
}

// Planar reports whether the decomposition is one plane thick by
// construction: built by New2D or from a shape without z spans.
func (d *Decomp) Planar() bool { return d.planar }

// P returns the number of active subregions, i.e. the processor count.
func (d *Decomp) P() int { return d.active }

// Total returns the total number of subregions, active or not.
func (d *Decomp) Total() int { return d.JX * d.JY * d.JZ }

// Sub returns the subregion at lattice position (i, j, k); k is 0 in a
// planar decomposition.
func (d *Decomp) Sub(i, j, k int) *Subregion {
	if i < 0 || i >= d.JX || j < 0 || j >= d.JY || k < 0 || k >= d.JZ {
		panic(fmt.Sprintf("decomp: lattice position (%d,%d,%d) outside (%d x %d x %d)", i, j, k, d.JX, d.JY, d.JZ))
	}
	return &d.subs[(k*d.JY+j)*d.JX+i]
}

// ActiveSubregions returns only the active subregions, rank order.
func (d *Decomp) ActiveSubregions() []Subregion {
	out := make([]Subregion, 0, d.active)
	for _, s := range d.subs {
		if s.Active {
			out = append(out, s)
		}
	}
	return out
}

// Deactivate marks subregion (i, j, k) inactive (entirely solid wall) and
// recomputes the dense ranks of the remaining active subregions. It mirrors
// the paper's figure-2 configuration where 9 of 24 subregions are walls and
// only 15 workstations are employed.
func (d *Decomp) Deactivate(i, j, k int) {
	s := d.Sub(i, j, k)
	if !s.Active {
		return
	}
	s.Active = false
	d.renumber()
}

// DeactivateWalls deactivates every subregion whose nodes are all solid
// according to the mask, which must be GX x GY with true = solid wall: a
// subregion goes when its whole x-y footprint is solid, so under a box
// lattice the mask describes geometry that does not vary along z. It
// returns the number of subregions deactivated.
func (d *Decomp) DeactivateWalls(solid func(x, y int) bool) int {
	n := 0
	for idx := range d.subs {
		s := &d.subs[idx]
		if !s.Active {
			continue
		}
		allSolid := true
	scan:
		for y := s.Y0; y < s.Y0+s.NY; y++ {
			for x := s.X0; x < s.X0+s.NX; x++ {
				if !solid(x, y) {
					allSolid = false
					break scan
				}
			}
		}
		if allSolid {
			s.Active = false
			n++
		}
	}
	if n > 0 {
		d.renumber()
	}
	return n
}

func (d *Decomp) renumber() {
	r := 0
	for i := range d.subs {
		if d.subs[i].Active {
			d.subs[i].Rank = r
			r++
		} else {
			d.subs[i].Rank = -1
		}
	}
	d.active = r
}

// ByRank returns the active subregion with the given dense rank.
func (d *Decomp) ByRank(rank int) *Subregion {
	for i := range d.subs {
		if d.subs[i].Active && d.subs[i].Rank == rank {
			return &d.subs[i]
		}
	}
	panic(fmt.Sprintf("decomp: no active subregion with rank %d", rank))
}

// step moves a lattice coordinate by one offset along an axis of n
// subregions, wrapping on a periodic axis; -1 is off the lattice.
func step(i, n int, periodic bool) int {
	if periodic {
		return (i + n) % n
	}
	if i < 0 || i >= n {
		return -1
	}
	return i
}

// Neighbor returns the active neighbour of s in direction dir, or nil if
// the neighbour is outside the lattice or inactive. A diagonal yields a
// neighbour only under the Full stencil. It allocates nothing.
func (d *Decomp) Neighbor(s *Subregion, dir Dir) *Subregion {
	if dir > Up && d.Stencil != Full {
		return nil
	}
	dx, dy, dz := dir.Delta()
	i := step(s.I+dx, d.JX, d.PeriodicX)
	j := step(s.J+dy, d.JY, d.PeriodicY)
	k := step(s.K+dz, d.JZ, d.PeriodicZ)
	if i < 0 || j < 0 || k < 0 {
		return nil
	}
	if n := d.Sub(i, j, k); n.Active {
		return n
	}
	return nil
}

// SideCount returns the number of communicating sides (faces with an
// active neighbour) of subregion s.
func (d *Decomp) SideCount(s *Subregion) int {
	n := 0
	for _, dir := range faces {
		if d.Neighbor(s, dir) != nil {
			n++
		}
	}
	return n
}

// SurfaceFactor returns the decomposition constant m of section 8, defined
// here as the maximum number of communicating sides over the active
// subregions: the slowest subregion's surface sets the communication time
// each step, N_c = m N^{1/2} in a plane and m N^{2/3} in a box (eq. 16).
// This reproduces the paper's table for (P x 1), (2 x 2), (4 x 4) and
// (5 x 4); for (3 x 3) the paper lists m = 3 (the average rounded) where
// the maximum is 4 — PaperM reproduces the published table verbatim for
// the decompositions the paper names.
func (d *Decomp) SurfaceFactor() int {
	m := 0
	for i := range d.subs {
		if !d.subs[i].Active {
			continue
		}
		if c := d.SideCount(&d.subs[i]); c > m {
			m = c
		}
	}
	return m
}

// MeanSideCount returns the average number of communicating sides over
// active subregions.
func (d *Decomp) MeanSideCount() float64 {
	if d.active == 0 {
		return 0
	}
	sum := 0
	for i := range d.subs {
		if d.subs[i].Active {
			sum += d.SideCount(&d.subs[i])
		}
	}
	return float64(sum) / float64(d.active)
}

// PaperM returns the constant m exactly as tabulated in section 8 of the
// paper for the planar decompositions used in its performance
// measurements:
//
//	(P x 1) -> 2, (2 x 2) -> 2, (3 x 3) -> 3, (4 x 4) -> 4, (5 x 4) -> 4.
//
// For decompositions outside the table it falls back to SurfaceFactor.
func (d *Decomp) PaperM() int {
	if d.JZ == 1 {
		switch {
		case d.JY == 1 || d.JX == 1:
			return 2
		case d.JX == 2 && d.JY == 2:
			return 2
		case d.JX == 3 && d.JY == 3:
			return 3
		case d.JX == 4 && d.JY == 4:
			return 4
		case (d.JX == 5 && d.JY == 4) || (d.JX == 4 && d.JY == 5):
			return 4
		}
	}
	return d.SurfaceFactor()
}

func (d *Decomp) String() string {
	if d.planar {
		return fmt.Sprintf("(%d x %d) of %dx%d, %d active, %s stencil",
			d.JX, d.JY, d.GX, d.GY, d.active, d.Stencil)
	}
	return fmt.Sprintf("(%d x %d x %d) of %dx%dx%d, %d active",
		d.JX, d.JY, d.JZ, d.GX, d.GY, d.GZ, d.active)
}
