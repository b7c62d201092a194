package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/decomp"
)

// The re-split as it stood before it cut rank to rank: every field stitched
// from the old ranks' interiors into one global array, then cut from it into
// each new rank's array. twoPassCut is recut's loop over one field, and
// twoPassCutRank is lattice.cut of that time, kept as they were (the method
// is a function here, its receiver its first argument).

// twoPassCut writes one field of every new rank (by rank in to) from the
// old ranks' arrays (by rank in lat) through a global array.
func twoPassCut(lat, to lattice, olds, news [][]float64, outside float64) {
	global := make([]float64, lat.gx*lat.gy*lat.gz)
	for rank, data := range olds {
		lat.stitch(global, lat.boxes[rank], data)
	}
	for rank, data := range news {
		twoPassCutRank(to, data, global, to.boxes[rank], outside)
	}
}

// twoPassCutRank writes a new rank's array, lat.values(b) long, from the global one:
// interior rows by copy, ghosts from the wrapped global coordinate — the
// new neighbour's edge value, which is what the last exchange would have
// left there. A node beyond a non-periodic face is in nobody's interior and
// gets outside.
func twoPassCutRank(lat lattice, data, global []float64, b box, outside float64) {
	west := wrapCoord(b.x0-1, lat.gx, lat.px)
	east := wrapCoord(b.x0+b.nx, lat.gx, lat.px)
	for z := -lat.hz; z < b.nz+lat.hz; z++ {
		gz := wrapCoord(b.z0+z, lat.gz, lat.pz)
		for y := -1; y <= b.ny; y++ {
			gy := wrapCoord(b.y0+y, lat.gy, lat.py)
			row := data[lat.row(b, y, z):][:b.nx+2]
			if gz < 0 || gz >= lat.gz || gy < 0 || gy >= lat.gy {
				for i := range row {
					row[i] = outside
				}
				continue
			}
			g := global[(gz*lat.gy+gy)*lat.gx:][:lat.gx]
			copy(row[1:], g[b.x0:b.x0+b.nx])
			row[0], row[b.nx+1] = outside, outside
			if west >= 0 {
				row[0] = g[west]
			}
			if east < lat.gx {
				row[b.nx+1] = g[east]
			}
		}
	}
}

// randomSpans splits g nodes into 1-4 spans (at most g) of random widths,
// 1-wide ones included.
func randomSpans(rng *rand.Rand, g int) []int {
	k := 1 + rng.Intn(min(4, g))
	cuts := rng.Perm(g - 1)[:k-1] // k-1 distinct cut points in 1..g-1
	at := make([]bool, g)
	for _, c := range cuts {
		at[c+1] = true
	}
	var spans []int
	for x, n := 0, 0; x < g; x++ {
		n++
		if x == g-1 || at[x+1] {
			spans, n = append(spans, n), 0
		}
	}
	return spans
}

// TestResizeCutMatchesTwoPassOracle: over seeded random pairs of shapes on
// one grid — weighted spans, 1-wide boxes, 1-4 spans an axis, 2D and 3D,
// each axis periodic or walled — every new rank's array cut rank to rank
// equals the two-pass cut through a global array, bit for bit, ghosts and
// nodes beyond a face included. The old arrays hold random values
// everywhere, ghosts too, and the two cuts start from different random
// arrays, so a node either one leaves unwritten, or reads from the wrong
// place, shows.
func TestResizeCutMatchesTwoPassOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	randomFill := func(n int) []float64 {
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		return a
	}
	for trial := range 400 {
		threeD := trial%2 == 1
		gx, gy, gz := 1+rng.Intn(11), 1+rng.Intn(9), 1
		if threeD {
			gz = 1 + rng.Intn(7)
		}
		shape := func() decomp.Shape {
			sh := decomp.Shape{X: randomSpans(rng, gx), Y: randomSpans(rng, gy)}
			if threeD {
				sh.Z = randomSpans(rng, gz)
			}
			return sh
		}
		px, py, pz := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
		hz := 0
		if threeD {
			hz = 1
		}
		lats := [2]lattice{}
		for i, sh := range [2]decomp.Shape{shape(), shape()} {
			d, err := decomp.NewShaped(sh, decomp.Full)
			if err != nil {
				t.Fatal(err)
			}
			d.PeriodicX, d.PeriodicY, d.PeriodicZ = px, py, pz
			lats[i] = latticeOf(d, hz)
		}
		from, to := lats[0], lats[1]
		name := fmt.Sprintf("trial %d: %dx%dx%d periodic %v/%v/%v, %d -> %d ranks",
			trial, gx, gy, gz, px, py, pz, len(from.boxes), len(to.boxes))

		olds := make([][]float64, len(from.boxes))
		for rank, b := range from.boxes {
			olds[rank] = randomFill(from.values(b))
		}
		want, got := make([][]float64, len(to.boxes)), make([][]float64, len(to.boxes))
		for rank, b := range to.boxes {
			want[rank], got[rank] = randomFill(to.values(b)), randomFill(to.values(b))
		}
		outside := 1 + rng.Float64()
		twoPassCut(from, to, olds, want, outside)
		for rank, b := range to.boxes {
			from.cutter(to, b)(got[rank], olds, outside)
		}
		for rank := range want {
			for i := range want[rank] {
				if math.Float64bits(got[rank][i]) != math.Float64bits(want[rank][i]) {
					t.Fatalf("%s: new rank %d value %d is %v, the two-pass cut has %v",
						name, rank, i, got[rank][i], want[rank][i])
				}
			}
		}
	}
}
