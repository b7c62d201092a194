package fluid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParamsCheck(t *testing.T) {
	good := DefaultParams()
	if err := good.Check(); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
	bad := []Params{
		{Nu: 0, Cs: 0.5, Dt: 1, Rho0: 1},
		{Nu: 0.1, Cs: 0, Dt: 1, Rho0: 1},
		{Nu: 0.1, Cs: 0.5, Dt: 0, Rho0: 1},
		{Nu: 0.1, Cs: 0.5, Dt: 1, Rho0: 0},
		{Nu: 0.1, Cs: 2, Dt: 1, Rho0: 1},           // cs dt > dx: eq. 4 violated
		{Nu: 0.3, Cs: 0.5, Dt: 1, Rho0: 1},         // nu dt > 1/4
		{Nu: 0.1, Cs: 0.5, Dt: 1, Rho0: 1, Eps: 1}, // filter too strong
	}
	for i, p := range bad {
		if err := p.Check(); err == nil {
			t.Errorf("bad params #%d accepted: %+v", i, p)
		}
	}
}

func TestCellTypeString(t *testing.T) {
	for c, want := range map[CellType]string{
		Interior: "fluid", Wall: "wall", Inlet: "inlet", Outlet: "outlet",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

func TestMask2DOutsideIsWall(t *testing.T) {
	m := NewMask2D(4, 4)
	for _, p := range [][2]int{{-1, 0}, {4, 0}, {0, -1}, {0, 4}, {-3, -3}, {100, 100}} {
		if m.At(p[0], p[1]) != Wall {
			t.Errorf("At(%d,%d) = %v, want Wall", p[0], p[1], m.At(p[0], p[1]))
		}
	}
	if m.At(2, 2) != Interior {
		t.Error("interior node not fluid by default")
	}
	// A planar mask is one plane: every other plane is outside it.
	for _, z := range []int{-1, 1, 2} {
		if m.Mask.At(2, 2, z) != Wall {
			t.Errorf("At(2,2,%d) off the plane = %v, want Wall", z, m.Mask.At(2, 2, z))
		}
	}
}

func TestMask2DFillRectAndBorder(t *testing.T) {
	m := NewMask2D(6, 5)
	m.Border(Wall)
	walls := 0
	for y := 0; y < 5; y++ {
		for x := 0; x < 6; x++ {
			if m.At(x, y) == Wall {
				walls++
			}
		}
	}
	if walls != 6*5-4*3 {
		t.Errorf("border wall count = %d, want %d", walls, 6*5-4*3)
	}
	m.FillRect(2, 2, 4, 3, Inlet)
	if m.At(2, 2) != Inlet || m.At(3, 2) != Inlet {
		t.Error("FillRect did not set inlet cells")
	}
	// Clipping: out-of-range rectangles must not panic.
	m.FillRect(-5, -5, 100, 1, Outlet)
	if m.At(0, 0) != Outlet {
		t.Error("clipped FillRect did not write row 0")
	}
}

func TestMask2DSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set out of range did not panic")
		}
	}()
	NewMask2D(3, 3).Set(3, 0, Wall)
}

func TestChannelMasks(t *testing.T) {
	m := ChannelMask2D(10, 7)
	for x := 0; x < 10; x++ {
		if m.At(x, 0) != Wall || m.At(x, 6) != Wall {
			t.Fatalf("channel wall missing at x=%d", x)
		}
	}
	for y := 1; y < 6; y++ {
		if m.At(3, y) != Interior {
			t.Fatalf("channel interior blocked at y=%d", y)
		}
	}
	m3 := ChannelMask3D(5, 6, 7)
	if m3.At(2, 0, 3) != Wall || m3.At(2, 5, 3) != Wall {
		t.Error("3D channel walls missing")
	}
	if m3.At(2, 3, 0) != Interior || m3.At(0, 3, 3) != Interior {
		t.Error("3D channel should be open in x and z")
	}
	// The 2D channel is every plane of the 3D one.
	m2 := ChannelMask2D(5, 6)
	for z := 0; z < 7; z++ {
		for y := -1; y <= 6; y++ {
			for x := -1; x <= 5; x++ {
				if m2.At(x, y) != m3.At(x, y, z) {
					t.Fatalf("(%d,%d): 2D channel %v, plane z=%d of the 3D one %v", x, y, m2.At(x, y), z, m3.At(x, y, z))
				}
			}
		}
	}
}

func TestMask3DOutsideIsWall(t *testing.T) {
	m := NewMask3D(3, 3, 3)
	if m.At(-1, 0, 0) != Wall || m.At(0, 3, 0) != Wall || m.At(0, 0, -1) != Wall {
		t.Error("outside 3D mask should be Wall")
	}
}

func TestPoiseuilleProfile(t *testing.T) {
	g, nu := 1e-4, 0.1
	y0, y1 := 0.0, 20.0
	// Zero at the walls.
	if v := PoiseuilleProfile(y0, y0, y1, g, nu); v != 0 {
		t.Errorf("profile at y0 = %v, want 0", v)
	}
	if v := PoiseuilleProfile(y1, y0, y1, g, nu); v != 0 {
		t.Errorf("profile at y1 = %v, want 0", v)
	}
	// Maximum at the centre matches PoiseuilleMax.
	mid := PoiseuilleProfile((y0+y1)/2, y0, y1, g, nu)
	if math.Abs(mid-PoiseuilleMax(y0, y1, g, nu)) > 1e-15 {
		t.Errorf("centreline %v != PoiseuilleMax %v", mid, PoiseuilleMax(y0, y1, g, nu))
	}
	// Symmetry property over random offsets.
	f := func(frac float64) bool {
		u := math.Mod(math.Abs(frac), 1)
		a := PoiseuilleProfile(y0+u*(y1-y0), y0, y1, g, nu)
		b := PoiseuilleProfile(y1-u*(y1-y0), y0, y1, g, nu)
		return math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAcousticPulse2D(t *testing.T) {
	if v := AcousticPulse2D(5, 5, 5, 5, 0.01, 3); v != 0.01 {
		t.Errorf("pulse centre = %v, want amplitude", v)
	}
	if v := AcousticPulse2D(50, 5, 5, 5, 0.01, 3); v > 1e-10 {
		t.Errorf("pulse far field = %v, want ~0", v)
	}
}
