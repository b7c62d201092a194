// Appendix E ablation: array lengths near multiples of the 4096-byte page
// size versus the padded lengths AvoidPageResonance produces. On the
// paper's HP9000/700s the resonant length halved the speed; the metric
// shows what this machine's prefetcher does with the same access pattern.
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
}
