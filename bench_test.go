// Appendix E ablation, in two halves. Lengths: array lengths near
// multiples of the 4096-byte page size versus the padded lengths
// AvoidPageResonance produces. On the paper's HP9000/700s the resonant
// length halved the speed; the metric shows what this machine's
// prefetcher does with the same access pattern. Starts: arrays that all
// begin on a page boundary versus grid's fields, each large one
// staggered 64 bytes further into the page than the last, under a loop
// that pushes nine arrays into nine others as the D2Q9 kernel does.
//
// Every other paper artifact has its route in cmd/experiments, and speed
// is measured with bench/:
//
//	go test -bench AblationArrayPadding -run '^$' .
package repro_test

import (
	"testing"

	"repro/internal/grid"
)

func BenchmarkAblationArrayPadding(b *testing.B) {
	const rows, cols = 512, 512 // 512*8 bytes per row = exactly one page
	traverse := func(stride int, data []float64) float64 {
		// Column-major walk: consecutive accesses are one stride apart,
		// the pattern that resonates with page-aligned rows.
		s := 0.0
		for x := 0; x < cols; x++ {
			for y := 0; y < rows; y++ {
				s += data[y*stride+x]
			}
		}
		return s
	}
	b.Run("resonant", func(b *testing.B) {
		data := make([]float64, rows*cols)
		sink := 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += traverse(cols, data)
		}
		_ = sink
		b.ReportMetric(float64(rows*cols)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
	})
	b.Run("padded", func(b *testing.B) {
		stride := grid.AvoidPageResonance(cols)
		data := make([]float64, rows*stride)
		sink := 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += traverse(stride, data)
		}
		_ = sink
		b.ReportMetric(float64(rows*cols)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
	})

	// Starts: iteration j stores element j+1 of each of k output arrays
	// and iteration j+1 loads element j+1 of k input arrays. When every
	// array starts on a page boundary those loads match the stores in
	// their low 12 bits and wait on them.
	const k, nx, ny = 9, 126, 30 // (126+2)*(30+2) values = 32 KiB, the smallest staggered field
	push := func(b *testing.B, alloc func() []float64) {
		var src, dst [k][]float64
		for i := range k {
			src[i], dst[i] = alloc(), alloc()
		}
		n := len(src[0]) - 1
		b.ResetTimer()
		for range b.N {
			for j := 0; j < n; j++ {
				for i := range k {
					dst[i][j+1] = 0.5 * src[i][j]
				}
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
	}
	b.Run("aligned-starts", func(b *testing.B) {
		push(b, func() []float64 { return make([]float64, (nx+2)*(ny+2)) })
	})
	b.Run("staggered-starts", func(b *testing.B) {
		push(b, func() []float64 { return grid.NewField2D(nx, ny, 1).Data() })
	})
}
