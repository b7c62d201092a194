package farm

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/perf"
)

// TestModelledTrafficMatchesSolvers holds perf.Build's message pattern —
// what the farm prices a step with — against what the solvers really send:
// over the four methods on an uneven lattice, periodic and not, one
// subregion deactivated in 2D, every rank sends after every phase the
// messages the model lists, to the same ranks in the same order. Their
// sizes agree for fd2d, fd3d and lb2d. For lb3d the model's 5 x face is
// short on the y and z sweeps: a sweep's strip is extended over the ghost
// rows of the axes swept before it, which is how the edge and corner
// populations travel without diagonal messages.
func TestModelledTrafficMatchesSolvers(t *testing.T) {
	par := fluid.DefaultParams()
	par.Eps = 0
	for _, method := range []string{perf.FD2D, perf.LB2D, perf.FD3D, perf.LB3D} {
		for _, periodic := range []bool{false, true} {
			for _, hole := range []bool{false, true} {
				var d *decomp.Decomp
				var build func(rank int) (core.Program, error)
				name := fmt.Sprintf("%s periodic=%v hole=%v", method, periodic, hole)
				coreMethod := method[:2]
				if method == perf.FD2D || method == perf.LB2D {
					d, _ = decomp.New2D(3, 2, 20, 13, decomp.StencilFor(method))
					if hole {
						d.Deactivate(1, 0, 0)
					}
					cfg := &core.Config2D{Method: coreMethod, Par: par, Mask: fluid.NewMask2D(20, 13), D: d}
					build = func(rank int) (core.Program, error) { return cfg.NewProgram(rank) }
				} else if hole {
					continue
				} else {
					d, _ = decomp.New3D(3, 2, 2, 20, 13, 9)
					cfg := &core.Config3D{Method: coreMethod, Par: par, Mask: fluid.NewMask3D(20, 13, 9), D: d}
					build = func(rank int) (core.Program, error) { return cfg.NewProgram(rank) }
				}
				d.PeriodicX, d.PeriodicY, d.PeriodicZ = periodic, periodic, periodic && !d.Planar()

				specs, err := perf.Build(d, method, perf.Hosts715(d.P()))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for rank, spec := range specs {
					p, err := build(rank)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(spec.Out) != p.Phases() {
						t.Fatalf("%s: model has %d phases, solver %d", name, len(spec.Out), p.Phases())
					}
					sub := d.ByRank(rank)
					for ph, out := range spec.Out {
						sends := p.Sends(ph)
						if len(out) != len(sends) || spec.Expect[ph] != len(p.Expects(ph)) {
							t.Fatalf("%s rank %d phase %d: model sends %d and expects %d, solver %d and %d",
								name, rank, ph, len(out), spec.Expect[ph], len(sends), len(p.Expects(ph)))
						}
						for i, m := range out {
							if m.Dst != sends[i].Peer {
								t.Fatalf("%s rank %d phase %d message %d: model to %d, solver to %d",
									name, rank, ph, i, m.Dst, sends[i].Peer)
							}
							want := m.Bytes
							if method == perf.LB3D {
								// 5 x face, the face grown by the ghost rows of
								// the axes already swept: none on the x sweep
								// (phase 0), x on the y sweep, x and y on the z
								// sweep.
								want = 5 * 8 * [...]int{
									sub.NY * sub.NZ,
									(sub.NX + 2) * sub.NZ,
									(sub.NX + 2) * (sub.NY + 2),
								}[ph]
							}
							if got := 8 * len(sends[i].Data); got != want {
								t.Errorf("%s rank %d phase %d message %d: solver sends %d bytes, want %d (model %d)",
									name, rank, ph, i, got, want, m.Bytes)
							}
						}
					}
				}
			}
		}
	}
}
