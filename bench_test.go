// Benchmarks regenerating every table and figure of the paper's evaluation
// (sections 7-8), plus ablations for the design choices called out in
// DESIGN.md. Efficiency/speedup numbers are emitted as custom metrics
// (b.ReportMetric), so `go test -bench=. -benchmem` prints the figures'
// headline values alongside this machine's real solver speeds.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fd"
	"repro/internal/fluid"
	"repro/internal/grid"
	"repro/internal/lbm"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/perf"
	"repro/internal/syncfile"
)

// ---------------------------------------------------------------------------
// Section 7 speed table: real solver speeds on this machine, in fluid
// nodes integrated per second, next to the paper's 39,132 nodes/s baseline.

func BenchmarkTableWorkstationSpeeds(b *testing.B) {
	par := fluid.DefaultParams()
	par.Nu = 0.05
	par.Eps = 0.01
	b.Run("LB2D", func(b *testing.B) {
		m := fluid.ChannelMask2D(128, 128)
		s, err := lbm.NewSolver2D(128, 128, par, func(x, y int) fluid.CellType { return m.At(x, y) })
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepSerial(true, false)
		}
		reportNodesPerSec(b, 128*128, "lb2d")
	})
	b.Run("FD2D", func(b *testing.B) {
		m := fluid.ChannelMask2D(128, 128)
		s, err := fd.NewSolver2D(128, 128, par, func(x, y int) fluid.CellType { return m.At(x, y) })
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepSerial(true, false)
		}
		reportNodesPerSec(b, 128*128, "fd2d")
	})
	b.Run("LB3D", func(b *testing.B) {
		m := fluid.ChannelMask3D(24, 24, 24)
		s, err := lbm.NewSolver3D(24, 24, 24, par, func(x, y, z int) fluid.CellType { return m.At(x, y, z) })
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepSerial(true, false, true)
		}
		reportNodesPerSec(b, 24*24*24, "lb3d")
	})
	b.Run("FD3D", func(b *testing.B) {
		m := fluid.ChannelMask3D(24, 24, 24)
		s, err := fd.NewSolver3D(24, 24, 24, par, func(x, y, z int) fluid.CellType { return m.At(x, y, z) })
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepSerial(true, false, true)
		}
		reportNodesPerSec(b, 24*24*24, "fd3d")
	})
}

func reportNodesPerSec(b *testing.B, nodes int, method string) {
	nps := float64(nodes) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(nps, "nodes/s")
	paper := cluster.BaseNodesPerSecond * cluster.HP715.SpeedFactor(method)
	b.ReportMetric(nps/paper, "x-715/50")
}

// ---------------------------------------------------------------------------
// Figures 5-8: 2D efficiency and speedup versus subregion size.

func benchFig2D(b *testing.B, method string, speedup bool) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		var err error
		if speedup {
			last, err = perf.FigSpeedup2D(method)
		} else {
			last, err = perf.FigEfficiency2D(method)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline metrics: the (5x4) curve at sqrt(N) = 100 and 300.
	curve := last[len(last)-1].Points
	b.ReportMetric(curve[4].Y, "at100")
	b.ReportMetric(curve[len(curve)-1].Y, "at300")
}

func BenchmarkFig5EfficiencyLB2D(b *testing.B) { benchFig2D(b, perf.LB2D, false) }
func BenchmarkFig6SpeedupLB2D(b *testing.B)    { benchFig2D(b, perf.LB2D, true) }
func BenchmarkFig7EfficiencyFD2D(b *testing.B) { benchFig2D(b, perf.FD2D, false) }
func BenchmarkFig8SpeedupFD2D(b *testing.B)    { benchFig2D(b, perf.FD2D, true) }

// ---------------------------------------------------------------------------
// Figure 9: scaled problem, 2D versus 3D on the shared bus.

func BenchmarkFig9Efficiency2Dvs3D(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		var err error
		last, err = perf.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	p20 := len(last[0].Points) - 1
	b.ReportMetric(last[0].Points[p20].Y, "2D-P20")
	b.ReportMetric(last[1].Points[p20].Y, "3D-P20")
}

// ---------------------------------------------------------------------------
// Figures 10-11: 3D efficiency and network-bound speedup.

func BenchmarkFig10Efficiency3D(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		var err error
		last, err = perf.Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	pts := last[0].Points
	b.ReportMetric(pts[len(pts)-1].Y, "2x2x2-at40")
}

func BenchmarkFig11Speedup3D(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		var err error
		last, err = perf.Fig11()
		if err != nil {
			b.Fatal(err)
		}
	}
	// The network bottleneck: the finest decomposition's best speedup.
	best := 0.0
	for _, p := range last[len(last)-1].Points {
		if p.Y > best {
			best = p.Y
		}
	}
	b.ReportMetric(best, "best-speedup")
}

// ---------------------------------------------------------------------------
// Figures 12-13: the closed-form model.

func BenchmarkFig12ModelEfficiency2D(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		last = perf.Fig12()
	}
	b.ReportMetric(last[3].Points[4].Y, "P20-at100")
}

func BenchmarkFig13ModelEfficiencyVsP(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		last = perf.Fig13()
	}
	n2 := len(last[0].Points) - 1
	b.ReportMetric(last[0].Points[n2].Y, "2D-P20")
	b.ReportMetric(last[1].Points[n2].Y, "3D-P20")
}

// ---------------------------------------------------------------------------
// Section 5.1: migration cost, measured through the real protocol.

func BenchmarkMigrationOverhead(b *testing.B) {
	d, err := decomp.New2D(2, 2, 32, 24, decomp.Full)
	if err != nil {
		b.Fatal(err)
	}
	d.PeriodicX = true
	par := fluid.DefaultParams()
	par.Nu = 0.1
	par.ForceX = 1e-5
	var protocol time.Duration
	for i := 0; i < b.N; i++ {
		cfg := &core.Config2D{Method: core.MethodLB, Par: par, Mask: fluid.ChannelMask2D(32, 24), D: d}
		sf, err := syncfile.New(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		sf.Poll = time.Millisecond
		job, _, err := core.NewJob2D(cfg, core.HubFactory(), sf, 60)
		if err != nil {
			b.Fatal(err)
		}
		job.Start()
		t0 := time.Now()
		if err := job.MigrateRanks([]int{1}, nil); err != nil {
			b.Fatal(err)
		}
		protocol += time.Since(t0)
		if err := job.WaitDone(); err != nil {
			b.Fatal(err)
		}
		job.Shutdown()
	}
	b.ReportMetric(protocol.Seconds()/float64(b.N), "protocol-s")
	b.ReportMetric(model.MigrationOverhead(30, 45*60), "paper-frac")
}

// ---------------------------------------------------------------------------
// Appendix C ablation: FCFS versus strict-order communication.

func BenchmarkAblationFCFSvsStrictOrder(b *testing.B) {
	var fcfs, strict float64
	for i := 0; i < b.N; i++ {
		var err error
		fcfs, strict, err = perf.AblationFCFS(10, 120, 0.1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(strict/fcfs, "strict/fcfs")
}

// ---------------------------------------------------------------------------
// Appendix E ablation: array lengths near multiples of the 4096-byte page
// size versus the padded lengths AvoidPageResonance produces. On the
// paper's HP9000/700s the resonant length halved the speed; the metric
// shows what this machine's prefetcher does with the same access pattern.

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

// ---------------------------------------------------------------------------
// Real concurrency: actual speedup of the goroutine-parallel driver over
// the sequential executor on this machine (not a paper figure, but the
// modern analogue of the whole exercise).

func BenchmarkParallelDriverRealSpeedup(b *testing.B) {
	mkCfg := func(st decomp.Stencil, jx, jy int) *core.Config2D {
		d, err := decomp.New2D(jx, jy, 256, 256, st)
		if err != nil {
			b.Fatal(err)
		}
		d.PeriodicX = true
		par := fluid.DefaultParams()
		par.Nu = 0.1
		par.ForceX = 1e-6
		return &core.Config2D{Method: core.MethodLB, Par: par, Mask: fluid.ChannelMask2D(256, 256), D: d}
	}
	const steps = 10
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RunSequential2D(mkCfg(decomp.Full, 4, 2), steps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-8workers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunParallel2D(mkCfg(decomp.Full, 4, 2), steps, core.HubFactory()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Transport microbenchmarks: the custom messaging layer.

func BenchmarkHaloExchangeRoundTrip(b *testing.B) {
	for _, l := range []int{50, 100, 300} {
		b.Run(fmt.Sprintf("side-%d", l), func(b *testing.B) {
			// One LB halo message pack/unpack pair at side length l.
			par := fluid.DefaultParams()
			m := fluid.ChannelMask2D(l, l)
			s, err := lbm.NewSolver2D(l, l, par, func(x, y int) fluid.CellType { return m.At(x, y) })
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]float64, 0, 4*l)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.Pack(0, decomp.East, buf[:0])
				s.Unpack(0, decomp.West, buf)
			}
			b.SetBytes(int64(8 * len(buf)))
		})
	}
}

// BenchmarkBusSimulation measures the discrete-event engine itself.
func BenchmarkBusSimulation(b *testing.B) {
	d, err := decomp.New2D(5, 4, 500, 400, decomp.Full)
	if err != nil {
		b.Fatal(err)
	}
	specs, err := perf.Build(d, perf.LB2D, perf.PaperHosts(20))
	if err != nil {
		b.Fatal(err)
	}
	bus := netsim.DefaultEthernet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perf.Run(&perf.Spec{Workers: specs, Steps: 20, Bus: bus}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Extensions: the conclusion's network outlook and the section-1.1
// load-balancing comparison.

func BenchmarkFutureNetworks(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		var err error
		last, err = perf.FutureNetworks()
		if err != nil {
			b.Fatal(err)
		}
	}
	at16 := func(s perf.Series) float64 {
		for _, p := range s.Points {
			if p.X == 16 {
				return p.Y
			}
		}
		return 0
	}
	b.ReportMetric(at16(last[0]), "bus-P16")
	b.ReportMetric(at16(last[1]), "switch-P16")
	b.ReportMetric(at16(last[3]), "atm-P16")
}

func BenchmarkDynamicVsMigration(b *testing.B) {
	var ig, mig, dyn float64
	for i := 0; i < b.N; i++ {
		var err error
		ig, mig, dyn, err = perf.DynamicVsMigration(10, 120, 5000, 0.5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ig, "ignore")
	b.ReportMetric(mig, "migrate")
	b.ReportMetric(dyn, "dynamic")
}
