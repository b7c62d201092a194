package decomp

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/fluid"
	"repro/internal/geom"
)

func TestSpanCoversGridExactly(t *testing.T) {
	f := func(g8, p8 uint8) bool {
		g, p := int(g8)+1, int(p8)%16+1
		if g < p {
			g = p
		}
		total := 0
		prevEnd := 0
		for i := 0; i < p; i++ {
			off, n := span(g, p, i)
			if off != prevEnd || n <= 0 {
				return false
			}
			prevEnd = off + n
			total += n
		}
		return total == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpanNearlyUniform(t *testing.T) {
	// Pieces differ by at most one node.
	for _, c := range []struct{ g, p int }{{100, 7}, {800, 5}, {500, 4}, {9, 3}, {10, 10}} {
		min, max := 1<<30, 0
		for i := 0; i < c.p; i++ {
			_, n := span(c.g, c.p, i)
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Errorf("span(%d,%d): piece sizes range [%d,%d]", c.g, c.p, min, max)
		}
	}
}

func TestNew2DBasic(t *testing.T) {
	d, err := New2D(5, 4, 800, 500, Star)
	if err != nil {
		t.Fatal(err)
	}
	if d.P() != 20 || d.Total() != 20 {
		t.Fatalf("P = %d, Total = %d, want 20, 20", d.P(), d.Total())
	}
	s := d.Sub(0, 0, 0)
	if s.X0 != 0 || s.Y0 != 0 || s.NX != 160 || s.NY != 125 {
		t.Errorf("sub(0,0) = %+v", s)
	}
	// Ranks must be dense and unique.
	seen := map[int]bool{}
	for _, s := range d.subs {
		if seen[s.Rank] {
			t.Fatalf("duplicate rank %d", s.Rank)
		}
		seen[s.Rank] = true
	}
}

func TestNew2DErrors(t *testing.T) {
	if _, err := New2D(0, 4, 100, 100, Star); err == nil {
		t.Error("accepted zero JX")
	}
	if _, err := New2D(5, 4, 4, 100, Star); err == nil {
		t.Error("accepted grid smaller than decomposition")
	}
}

// neighbours counts the active neighbours of s over the given directions.
func neighbours(d *Decomp, s *Subregion, dirs []Dir) int {
	n := 0
	for _, dir := range dirs {
		if d.Neighbor(s, dir) != nil {
			n++
		}
	}
	return n
}

func TestNeighborTopologyStar(t *testing.T) {
	d, _ := New2D(3, 3, 90, 90, Star)
	center := d.Sub(1, 1, 0)
	if got := neighbours(d, center, Dirs(Full)); got != 4 {
		t.Fatalf("center has %d star neighbours, want 4", got)
	}
	if d.Neighbor(center, West).I != 0 || d.Neighbor(center, East).I != 2 ||
		d.Neighbor(center, South).J != 0 || d.Neighbor(center, North).J != 2 {
		t.Error("bad neighbour positions")
	}
	if got := neighbours(d, d.Sub(0, 0, 0), Dirs(Full)); got != 2 {
		t.Errorf("corner has %d neighbours, want 2", got)
	}
	// Diagonal lookups return nil under a star stencil, and a plane has
	// nothing below or above it.
	if d.Neighbor(center, NorthEast) != nil {
		t.Error("star stencil returned a diagonal neighbour")
	}
	if d.Neighbor(center, Down) != nil || d.Neighbor(center, Up) != nil {
		t.Error("planar decomposition returned a neighbour along z")
	}
}

func TestNeighborTopologyFull(t *testing.T) {
	d, _ := New2D(3, 3, 90, 90, Full)
	if got := neighbours(d, d.Sub(1, 1, 0), Dirs(Full)); got != 8 {
		t.Fatalf("center has %d full neighbours, want 8", got)
	}
	if got := neighbours(d, d.Sub(2, 2, 0), Dirs(Full)); got != 3 {
		t.Errorf("corner has %d full neighbours, want 3", got)
	}
}

// TestNeighborDoesNotAllocate: Neighbor and the direction lists are on the
// pricing path of every placement.
func TestNeighborDoesNotAllocate(t *testing.T) {
	d, _ := New2D(3, 3, 90, 90, Full)
	s := d.Sub(1, 1, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		for _, dir := range Dirs(d.Stencil) {
			_ = d.Neighbor(s, dir)
		}
		for _, dir := range Faces() {
			_ = d.Neighbor(s, dir)
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per neighbour scan, want 0", allocs)
	}
}

// TestNeighborReciprocity is the lattice table for both dimensions: planar
// and box lattices under every combination of periodic axes, with
// deactivated subregions, and with one or two subregions along a periodic
// axis, where west and east are the subregion itself or the same rank. On
// each, ranks are row-major with planes outermost, n := Neighbor(s, d)
// implies Neighbor(n, d.Opposite()) == s, and a neighbour sits at the
// direction's offset.
func TestNeighborReciprocity(t *testing.T) {
	type hole struct{ i, j, k int }
	lattices := []struct {
		name       string
		jx, jy, jz int // jz = 0: planar
		holes      []hole
	}{
		{"4x3", 4, 3, 0, nil},
		{"1x3", 1, 3, 0, nil},
		{"2x2", 2, 2, 0, nil},
		{"3x2 with a hole", 3, 2, 0, []hole{{1, 0, 0}}},
		{"2x3x2", 2, 3, 2, nil},
		{"1x2x3", 1, 2, 3, nil},
		{"3x2x2 with holes", 3, 2, 2, []hole{{0, 0, 0}, {2, 1, 1}}},
	}
	for _, l := range lattices {
		for periodic := 0; periodic < 8; periodic++ {
			var d *Decomp
			var err error
			if l.jz == 0 {
				d, err = New2D(l.jx, l.jy, 10*l.jx+1, 10*l.jy, Full)
			} else {
				d, err = New3D(l.jx, l.jy, l.jz, 10*l.jx+1, 10*l.jy, 10*l.jz+2)
			}
			if err != nil {
				t.Fatal(err)
			}
			d.PeriodicX, d.PeriodicY, d.PeriodicZ = periodic&1 != 0, periodic&2 != 0, periodic&4 != 0
			for _, h := range l.holes {
				d.Deactivate(h.i, h.j, h.k)
			}
			name := fmt.Sprintf("%s periodic %03b", l.name, periodic)

			rank := 0
			for idx := range d.subs {
				s := &d.subs[idx]
				if s != d.Sub(s.I, s.J, s.K) || idx != (s.K*d.JY+s.J)*d.JX+s.I {
					t.Fatalf("%s: subregion %d sits at (%d,%d,%d)", name, idx, s.I, s.J, s.K)
				}
				if !s.Active {
					continue
				}
				if s.Rank != rank || d.ByRank(rank) != s {
					t.Fatalf("%s: (%d,%d,%d) has rank %d, want %d", name, s.I, s.J, s.K, s.Rank, rank)
				}
				rank++
				for dir := West; int(dir) < NumDirs; dir++ {
					n := d.Neighbor(s, dir)
					if n == nil {
						continue
					}
					if back := d.Neighbor(n, dir.Opposite()); back != s {
						t.Fatalf("%s: reciprocity broken at rank %d dir %v", name, s.Rank, dir)
					}
					dx, dy, dz := dir.Delta()
					mod := func(v, n int) int { return ((v % n) + n) % n }
					if n.I != mod(s.I+dx, d.JX) || n.J != mod(s.J+dy, d.JY) || n.K != mod(s.K+dz, d.JZ) {
						t.Fatalf("%s: rank %d dir %v leads to (%d,%d,%d)", name, s.Rank, dir, n.I, n.J, n.K)
					}
				}
			}
			if rank != d.P() {
				t.Fatalf("%s: %d ranks, P = %d", name, rank, d.P())
			}
		}
	}
}

// TestPlanarIsABoxOnePlaneThick: New2D and New3D with one plane of one
// node agree on every subregion's box; what differs is that the planar
// one's shape has no z spans.
func TestPlanarIsABoxOnePlaneThick(t *testing.T) {
	planar, err := New2D(3, 2, 31, 17, Star)
	if err != nil {
		t.Fatal(err)
	}
	box, err := New3D(3, 2, 1, 31, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(planar.subs, box.subs) {
		t.Errorf("boxes differ:\n%+v\n%+v", planar.subs, box.subs)
	}
	if !planar.Planar() || box.Planar() {
		t.Errorf("Planar() = %v, %v; want true, false", planar.Planar(), box.Planar())
	}
	if sh := planar.ShapeOf(); sh.Z != nil || !sh.Equal(UniformShape(3, 2, 0, 31, 17, 0)) {
		t.Errorf("planar shape %v carries z spans or is not the uniform one", sh)
	}
	if sh := box.ShapeOf(); !sh.Equal(UniformShape(3, 2, 1, 31, 17, 1)) {
		t.Errorf("box shape %v is not the one it was built from", sh)
	}
}

// TestDirOppositeInvolution: over all ten directions Opposite is an
// involution and negates Delta, and the shared lists keep their orders.
func TestDirOppositeInvolution(t *testing.T) {
	for d := West; int(d) < NumDirs; d++ {
		if d.Opposite().Opposite() != d || d.Opposite() == d {
			t.Errorf("Opposite not an involution for %v", d)
		}
		dx, dy, dz := d.Delta()
		ox, oy, oz := d.Opposite().Delta()
		if dx != -ox || dy != -oy || dz != -oz {
			t.Errorf("Opposite(%v) delta mismatch", d)
		}
	}
	if got := fmt.Sprint(Dirs(Star), Dirs(Full), Faces()); got != "[W E S N] [W E S N SW SE NW NE] [W E S N D U]" {
		t.Errorf("direction lists are %s", got)
	}
}

func TestDeactivateRenumbers(t *testing.T) {
	d, _ := New2D(6, 4, 1107, 700, Star)
	// Mimic figure 2: deactivate 9 all-wall subregions.
	walls := [][2]int{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {0, 1}, {5, 3}, {5, 2}, {0, 2}}
	for _, w := range walls {
		d.Deactivate(w[0], w[1], 0)
	}
	if d.P() != 15 {
		t.Fatalf("active = %d, want 15", d.P())
	}
	// Ranks are dense 0..14 over active subregions.
	seen := map[int]bool{}
	for _, s := range d.ActiveSubregions() {
		if s.Rank < 0 || s.Rank >= 15 || seen[s.Rank] {
			t.Fatalf("bad rank %d", s.Rank)
		}
		seen[s.Rank] = true
	}
	// Inactive subregions are not returned as neighbours.
	s := d.Sub(1, 1, 0)
	if d.Neighbor(s, South) != nil {
		t.Error("inactive subregion returned as neighbour")
	}
	// ByRank round-trips.
	for _, s := range d.ActiveSubregions() {
		got := d.ByRank(s.Rank)
		if got.I != s.I || got.J != s.J {
			t.Fatalf("ByRank(%d) = (%d,%d), want (%d,%d)", s.Rank, got.I, got.J, s.I, s.J)
		}
	}
}

func TestDeactivateWalls(t *testing.T) {
	d, _ := New2D(2, 2, 40, 40, Star)
	// Left half entirely solid.
	n := d.DeactivateWalls(func(x, y int) bool { return x < 20 })
	if n != 2 || d.P() != 2 {
		t.Fatalf("deactivated %d, active %d; want 2, 2", n, d.P())
	}
	if d.Sub(0, 0, 0).Active || d.Sub(0, 1, 0).Active {
		t.Error("solid subregions still active")
	}
	if !d.Sub(1, 0, 0).Active || !d.Sub(1, 1, 0).Active {
		t.Error("fluid subregions deactivated")
	}
}

func TestSurfaceFactorTable(t *testing.T) {
	// The m table of section 8: (P x 1) -> 2, (2 x 2) -> 2, (3 x 3) -> 3,
	// (4 x 4) -> 4, (5 x 4) -> 4. PaperM reproduces it verbatim.
	cases := []struct {
		jx, jy, want int
	}{
		{7, 1, 2}, {2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {5, 4, 4},
	}
	for _, c := range cases {
		d, err := New2D(c.jx, c.jy, 40*c.jx, 40*c.jy, Star)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.PaperM(); got != c.want {
			t.Errorf("PaperM(%d x %d) = %d, want %d", c.jx, c.jy, got, c.want)
		}
	}
}

func TestSurfaceFactorMaxSides(t *testing.T) {
	d, _ := New2D(5, 4, 200, 160, Star)
	if got := d.SurfaceFactor(); got != 4 {
		t.Errorf("SurfaceFactor(5x4) = %d, want 4 (interior subregion)", got)
	}
	d1, _ := New2D(6, 1, 120, 20, Star)
	if got := d1.SurfaceFactor(); got != 2 {
		t.Errorf("SurfaceFactor(6x1) = %d, want 2", got)
	}
}

func TestMeanSideCount(t *testing.T) {
	d, _ := New2D(3, 3, 90, 90, Star)
	// 4 corners*2 + 4 edges*3 + 1 center*4 = 24 sides over 9 subregions.
	want := 24.0 / 9.0
	if got := d.MeanSideCount(); got != want {
		t.Errorf("MeanSideCount = %v, want %v", got, want)
	}
}

// TestUnsynchronizationBounds: appendix A bounds how far two ranks drift
// apart when one of them stops. A rank computes step n+1 only from its
// neighbours' step-n halos, so a direct neighbour is at most one step
// ahead, and two ranks drift at most their hop distance: the bound is
// the hop diameter of the active subregions. On a non-periodic lattice,
// figures 1 and 2 with their all-wall subregions deactivated included,
// it is eq. 22's max(J,K)-1 under a full stencil and eq. 23's
// (J-1)+(K-1) under a star stencil. A periodic wrap shortens it, and
// there the closed forms overstate it: a periodic 4 x 4 lattice drifts
// at most 4 and 2 steps, where they give 6 and 3.
func TestUnsynchronizationBounds(t *testing.T) {
	const nx, ny = 240, 160
	for _, c := range []struct {
		name       string
		jx, jy     int
		mask       *fluid.Mask2D
		periodic   bool
		star, full int
	}{
		{"6x4", 6, 4, nil, false, 8, 5},
		{"figure 1, walls deactivated", 5, 4, geom.FluePipe(nx, ny), false, 7, 4},
		{"figure 2, walls deactivated", 6, 4, geom.FluePipeChannel(nx, ny), false, 8, 5},
		{"periodic 4x4", 4, 4, nil, true, 4, 2},
	} {
		for _, st := range []Stencil{Star, Full} {
			d, err := New2D(c.jx, c.jy, nx, ny, st)
			if err != nil {
				t.Fatal(err)
			}
			if c.mask != nil {
				d.DeactivateWalls(c.mask.Solid)
			}
			d.PeriodicX, d.PeriodicY = c.periodic, c.periodic
			want, closed := c.star, (c.jx-1)+(c.jy-1) // eq. 23
			if st == Full {
				want, closed = c.full, max(c.jx, c.jy)-1 // eq. 22
			}
			got := hopDiameter(d)
			if got != want {
				t.Errorf("%s, %s stencil: hop diameter %d, want %d", c.name, st, got, want)
			}
			if !c.periodic && got != closed {
				t.Errorf("%s, %s stencil: hop diameter %d, eq. 22/23 give %d", c.name, st, got, closed)
			}
		}
	}
	// A box exchanges across its six faces only: eq. 23 with the third
	// axis added.
	box, err := New3D(3, 2, 2, 30, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := hopDiameter(box); got != 2+1+1 {
		t.Errorf("3x2x2 box: hop diameter %d, want 4", got)
	}
}

// hopDiameter is the largest hop distance between two active
// subregions: the fewest Neighbor steps that join them, along the
// stencil's directions in a plane and the six faces in a box.
func hopDiameter(d *Decomp) int {
	dirs := Faces()
	if d.planar {
		dirs = Dirs(d.Stencil)
	}
	diam := 0
	for _, src := range d.ActiveSubregions() {
		dist := make([]int, d.P())
		for i := range dist {
			dist[i] = -1
		}
		dist[src.Rank] = 0
		queue := []*Subregion{d.ByRank(src.Rank)}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			for _, dir := range dirs {
				if n := d.Neighbor(s, dir); n != nil && dist[n.Rank] < 0 {
					dist[n.Rank] = dist[s.Rank] + 1
					diam = max(diam, dist[n.Rank])
					queue = append(queue, n)
				}
			}
		}
	}
	return diam
}

func TestNew3DBasic(t *testing.T) {
	d, err := New3D(3, 2, 2, 75, 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d.P() != 12 {
		t.Fatalf("P = %d, want 12", d.P())
	}
	s := d.Sub(1, 1, 1)
	if s.X0 != 25 || s.Y0 != 25 || s.Z0 != 25 {
		t.Errorf("sub(1,1,1) offsets = (%d,%d,%d)", s.X0, s.Y0, s.Z0)
	}
	// Full coverage: node counts sum to the grid volume.
	total := 0
	for _, s := range d.subs {
		total += s.Nodes()
	}
	if total != 75*50*50 {
		t.Errorf("total nodes %d != %d", total, 75*50*50)
	}
}

func TestNew3DErrors(t *testing.T) {
	if _, err := New3D(2, 2, 0, 10, 10, 10); err == nil {
		t.Error("accepted zero JZ")
	}
	if _, err := New3D(4, 2, 2, 3, 10, 10); err == nil {
		t.Error("accepted undersized grid")
	}
}

func Test3DNeighborsAndFaces(t *testing.T) {
	d, _ := New3D(3, 3, 3, 30, 30, 30)
	center := d.Sub(1, 1, 1)
	if got := d.SideCount(center); got != 6 {
		t.Errorf("center faces = %d, want 6", got)
	}
	corner := d.Sub(0, 0, 0)
	if got := d.SideCount(corner); got != 3 {
		t.Errorf("corner faces = %d, want 3", got)
	}
	if got := d.SurfaceFactor(); got != 6 {
		t.Errorf("SurfaceFactor = %d, want 6", got)
	}
	// (P x 1 x 1) pencil: m = 2 as used in figure 13.
	p, _ := New3D(8, 1, 1, 200, 25, 25)
	if got := p.SurfaceFactor(); got != 2 {
		t.Errorf("pencil SurfaceFactor = %d, want 2", got)
	}
}

// ShapeOf extracts the per-axis spans of the decomposition (row 0's
// columns, column 0's rows, and for a box lattice the planes; shaped
// decompositions are lattice-aligned by construction). A planar
// decomposition's shape carries no z spans, so it reads as it was written.
func (d *Decomp) ShapeOf() Shape {
	sh := Shape{X: make([]int, d.JX), Y: make([]int, d.JY)}
	for i := range sh.X {
		sh.X[i] = d.Sub(i, 0, 0).NX
	}
	for j := range sh.Y {
		sh.Y[j] = d.Sub(0, j, 0).NY
	}
	if !d.planar {
		sh.Z = make([]int, d.JZ)
		for k := range sh.Z {
			sh.Z[k] = d.Sub(0, 0, k).NZ
		}
	}
	return sh
}
