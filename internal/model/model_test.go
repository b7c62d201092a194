package model

import (
	"math"
	"testing"
	"testing/quick"
)

// TestEfficiencyLimits reads equation 12, f = (1 + Tcom/Tcalc)^-1, at
// its two limits through equation 17, where Tcom/Tcalc = N^-1/2 m
// Ucalc/Ucom.
func TestEfficiencyLimits(t *testing.T) {
	// No communication: perfect efficiency.
	if f := Efficiency2D(1, 0, 1); f != 1 {
		t.Errorf("f = %v, want 1", f)
	}
	// Communication equal to computation: f = 1/2.
	if f := Efficiency2D(1, 1, 1); f != 0.5 {
		t.Errorf("f = %v, want 0.5", f)
	}
}

func TestSurfaceNodes(t *testing.T) {
	// A 100x100 subregion with m = 4 communicates 400 nodes.
	if got := SurfaceNodes2D(4, 10000); got != 400 {
		t.Errorf("SurfaceNodes2D = %v, want 400", got)
	}
	// A 25^3 subregion with m = 2: 2 * 625 = 1250.
	if got := SurfaceNodes3D(2, 15625); math.Abs(got-1250) > 1e-9 {
		t.Errorf("SurfaceNodes3D = %v, want 1250", got)
	}
}

func TestSharedBusEfficiencyPaperValues(t *testing.T) {
	// Spot values of equation 20 at the paper's calibration 2/3.
	// P=20, m=4, N=100^2: f = (1 + (19*4*2/3)/100)^-1.
	want := 1 / (1 + 19.0*4*2.0/3/100)
	if got := SharedBusEfficiency2D(10000, 20, 4, PaperCalibration); math.Abs(got-want) > 1e-12 {
		t.Errorf("eq20 = %v, want %v", got, want)
	}
	// Figure 13's 3D curve at P=20, N=25^3, m=2 with the 5/6 factor.
	n := 25.0 * 25 * 25
	want3 := 1 / (1 + 5.0/6.0*math.Pow(n, -1.0/3.0)*19*2*2.0/3)
	if got := SharedBusEfficiency3D(n, 20, 2, PaperCalibration); math.Abs(got-want3) > 1e-12 {
		t.Errorf("eq21 = %v, want %v", got, want3)
	}
}

func TestEfficiencyMonotonicity(t *testing.T) {
	// Efficiency increases with N and decreases with P and m.
	f := func(n16 uint16, p8, m8 uint8) bool {
		n := float64(n16%500+10) * 100
		p := int(p8%30) + 2
		m := int(m8%4) + 1
		f1 := SharedBusEfficiency2D(n, p, m, PaperCalibration)
		f2 := SharedBusEfficiency2D(4*n, p, m, PaperCalibration)
		f3 := SharedBusEfficiency2D(n, p+1, m, PaperCalibration)
		return f1 > 0 && f1 <= 1 && f2 > f1 && f3 < f1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEfficiency2Dvs3DScaling(t *testing.T) {
	// The same node count per subregion yields lower efficiency in 3D
	// because the surface fraction scales as N^-1/3 versus N^-1/2
	// (section 8's explanation of why 3D is so much harder).
	n := 14500.0 // the comparable sizes of figure 9
	f2 := Efficiency2D(n, 2, 1)
	f3 := Efficiency3D(n, 2, 1)
	if f3 >= f2 {
		t.Errorf("3D efficiency %v should be below 2D %v at equal N", f3, f2)
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(0.8, 20); math.Abs(s-16) > 1e-12 {
		t.Errorf("Speedup = %v, want 16", s)
	}
}

func TestMigrationOverhead(t *testing.T) {
	// 30 s per 45 min: ~1.1%, the paper's "insignificant" cost.
	got := MigrationOverhead(30, 45*60)
	if got < 0.01 || got > 0.012 {
		t.Errorf("MigrationOverhead = %v, want ~0.011", got)
	}
}
