package decomp

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// weightedSpansOracle is WeightedSpans as it was written with a
// reflection sort over heap scratch, frozen.
func weightedSpansOracle(g int, w []float64) []int {
	p := len(w)
	total := 0.0
	for _, wi := range w {
		total += wi
	}
	spans := make([]int, p)
	frac := make([]float64, p)
	assigned := 0
	for i, wi := range w {
		quota := float64(g) * wi / total
		spans[i] = int(quota)
		frac[i] = quota - float64(spans[i])
		assigned += spans[i]
	}
	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for r := 0; r < g-assigned; r++ {
		spans[order[r]]++
	}
	largest := func() int {
		max := 0
		for i, n := range spans {
			if n > spans[max] {
				max = i
			}
		}
		return max
	}
	for over := assigned - g; over > 0; over-- {
		spans[largest()]--
	}
	for i := range spans {
		for spans[i] < 1 {
			spans[largest()]--
			spans[i]++
		}
	}
	return spans
}

// tiedWeights draws p weights from a few repeated values, so many pieces
// share a fractional remainder, and now and then one tiny weight that
// floors to zero nodes.
func tiedWeights(r *rand.Rand, p int) []float64 {
	values := []float64{1, 0.84, 0.86, 0.5, 2, 1.0 / 3}
	w := make([]float64, p)
	for i := range w {
		w[i] = values[r.Intn(len(values))]
	}
	if r.Intn(5) == 0 {
		w[r.Intn(p)] = 1e-3
	}
	return w
}

// TestWeightedSpansMatchesSortOracle: the remainder order (largest
// fraction first, lower index among equal fractions) is the frozen
// sort's, on axes short enough for the stack scratch and longer ones.
func TestWeightedSpansMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := range 2000 {
		p := 1 + r.Intn(12)
		if trial%100 == 0 {
			p = maxScratch + 1 + r.Intn(20)
		}
		g := p + r.Intn(200)
		w := tiedWeights(r, p)
		got, err := WeightedSpans(g, w)
		if err != nil {
			t.Fatal(err)
		}
		if want := weightedSpansOracle(g, w); !slices.Equal(got, want) {
			t.Fatalf("WeightedSpans(%d, %v) = %v, the frozen sort gives %v", g, w, got, want)
		}
	}
}

// TestWeightedShapeMatchesSortOracle: each axis of a weighted shape is
// the frozen WeightedSpans of that axis's summed speeds.
func TestWeightedShapeMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for range 500 {
		jx, jy, jz := 1+r.Intn(4), 1+r.Intn(4), r.Intn(3)
		planes := max(jz, 1)
		speed := tiedWeights(r, jx*jy*planes)
		gx, gy, gz := jx+r.Intn(90), jy+r.Intn(90), planes+r.Intn(90)
		sh, err := WeightedShape(jx, jy, jz, gx, gy, gz, speed)
		if err != nil {
			t.Fatal(err)
		}
		wx, wy, wz := make([]float64, jx), make([]float64, jy), make([]float64, planes)
		for rank, s := range speed {
			wx[rank%jx] += s
			wy[rank/jx%jy] += s
			wz[rank/(jx*jy)] += s
		}
		want := Shape{X: weightedSpansOracle(gx, wx), Y: weightedSpansOracle(gy, wy)}
		if jz > 0 {
			want.Z = weightedSpansOracle(gz, wz)
		}
		if !sh.Equal(want) {
			t.Fatalf("WeightedShape(%d, %d, %d, %d, %d, %d, %v) = %+v, the frozen sort gives %+v",
				jx, jy, jz, gx, gy, gz, speed, sh, want)
		}
	}
}

// TestWeightedShapeAllocatesOnce: a weighted shape costs one allocation,
// its spans; the weights and the remainder order live on the stack.
func TestWeightedShapeAllocatesOnce(t *testing.T) {
	speed := []float64{1, 0.84, 1, 0.86, 1, 1, 0.84, 1}
	for _, jz := range []int{0, 2} {
		jy := 2
		if jz == 0 {
			jy = 4
		}
		n := testing.AllocsPerRun(100, func() {
			if _, err := WeightedShape(2, jy, jz, 60, 80, 40, speed); err != nil {
				t.Fatal(err)
			}
		})
		if n != 1 {
			t.Errorf("WeightedShape with jz=%d allocates %v times, want 1", jz, n)
		}
	}
}
