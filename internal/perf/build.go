package perf

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/decomp"
)

// Method names reused from the cluster speed table.
const (
	LB2D = "lb2d"
	FD2D = "fd2d"
	LB3D = "lb3d"
	FD3D = "fd3d"
)

// pattern is a method's per-step message pattern of section 6, and the
// split of its compute across its phases.
type pattern struct {
	planar bool
	// fracs splits the per-step compute across the phases. The splits
	// reflect the relative operation counts of the kernels; the efficiency
	// results are insensitive to them because only the total compute and
	// the message pattern matter at the step scale.
	fracs []float64
	// perNode is the number of values sent per face node after each phase,
	// by the axis the face is normal to; zero is no message.
	perNode [][3]int
	// corner is the number of values of a corner message (sent after phase
	// 0), and trim what a face message loses to the corners.
	corner, trim int
}

var patterns = map[string]pattern{
	// relax+shift, then macroscopics+filter. One message per neighbour
	// after phase 0; sides carry the three crossing populations (3L-2
	// values after corner trimming), corners one value.
	LB2D: {planar: true, fracs: []float64{0.8, 0.2}, perNode: [][3]int{{3, 3, 0}, {}}, corner: 1, trim: 2},
	// velocity update, density update, filter. Two messages per side
	// neighbour: velocities after phase 0, density after phase 1.
	FD2D: {planar: true, fracs: []float64{0.55, 0.25, 0.20}, perNode: [][3]int{{2, 2, 0}, {1, 1, 0}, {}}},
	// relax, two sweep barriers, shift+macroscopics+filter. The five
	// crossing populations per face node, the x faces after relax, then
	// the y faces, then the z faces.
	LB3D: {fracs: []float64{0.5, 0, 0, 0.5}, perNode: [][3]int{{5, 0, 0}, {0, 5, 0}, {0, 0, 5}, {}}},
	FD3D: {fracs: []float64{0.55, 0.25, 0.20}, perNode: [][3]int{{3, 3, 3}, {1, 1, 1}, {}}},
}

const bytesPerValue = 8

// Build constructs the per-step pattern of a decomposition running the
// given method on the given hosts (hosts[rank] serves rank). Message sizes
// follow section 6, from the method's row of the patterns table: a face
// message carries the row's values per face node, the face area being the
// product of the subregion's extents on the axes the direction does not
// move along, and a corner message the row's corner values.
//
// The pattern is checked against what the solvers send
// (farm.TestModelledTrafficMatchesSolvers): destinations, counts and order
// agree for all four methods, and sizes for fd2d, fd3d and lb2d. One
// finding: the lb3d solver's y- and z-sweep messages are longer than the
// 5 x face modelled here, by exactly the ghost rows of the axes already
// swept — 5(NX+2)NZ on a y face and 5(NX+2)(NY+2) on a z face — because
// the extended strips are how its edge and corner populations travel
// without diagonal messages. The numbers stay as section 6 gives them:
// recorded traces are priced with them.
//
// StepComputeSec prices a rank's compute as nodes/speed — the paper's
// serial-equivalent per-rank work. This is deliberate: the solvers'
// intra-rank worker slabs (core's Workers knob) speed up wall-clock
// execution without changing the modelled workstation speeds, so the
// efficiency and decomposition figures built on these specs reproduce
// the paper's single-threaded-workstation accounting regardless of how
// the host running the reproduction is parallelized.
func Build(d *decomp.Decomp, method string, hosts []*cluster.Host) ([]WorkerSpec, error) {
	if len(hosts) < d.P() {
		return nil, fmt.Errorf("perf: %d hosts for %d subregions", len(hosts), d.P())
	}
	pat, ok := patterns[method]
	if !ok || pat.planar != d.Planar() {
		return nil, fmt.Errorf("perf: method %q does not run on the decomposition %v", method, d)
	}
	specs := make([]WorkerSpec, d.P())
	for rank := range specs {
		sub := d.ByRank(rank)
		w := WorkerSpec{
			Rank:           rank,
			StepComputeSec: float64(sub.Nodes()) / hosts[rank].Speed(method),
			PhaseFrac:      pat.fracs,
			Out:            make([][]OutMsg, len(pat.fracs)),
			Expect:         make([]int, len(pat.fracs)),
		}
		send := func(phase, dst, values int) {
			w.Out[phase] = append(w.Out[phase], OutMsg{Dst: dst, Bytes: values * bytesPerValue})
			w.Expect[phase]++
		}
		extent := [3]int{sub.NX, sub.NY, sub.NZ}
		for dir := decomp.Dir(0); int(dir) < decomp.NumDirs; dir++ {
			n := d.Neighbor(sub, dir)
			if n == nil {
				continue
			}
			dx, dy, dz := dir.Delta()
			area, axis, moves := 1, 0, 0
			for a, off := range [3]int{dx, dy, dz} {
				if off == 0 {
					area *= extent[a]
				} else {
					axis = a
					moves++
				}
			}
			if moves > 1 {
				if pat.corner > 0 {
					send(0, n.Rank, pat.corner*area)
				}
				continue
			}
			for phase, values := range pat.perNode {
				if values[axis] > 0 {
					send(phase, n.Rank, values[axis]*area-pat.trim)
				}
			}
		}
		specs[rank] = w
	}
	return specs, nil
}

// Hosts715 returns n idle 715/50 hosts, the normalization reference of
// section 7 ("it makes sense to normalize our results using the
// performance of the 715 model").
func Hosts715(n int) []*cluster.Host {
	hosts := make([]*cluster.Host, n)
	for i := range hosts {
		hosts[i] = cluster.NewHost(fmt.Sprintf("hp715-%02d", i), cluster.HP715)
	}
	return hosts
}

// SerialTime returns T_1: the time one idle 715/50 needs to integrate the
// whole problem of totalNodes for one step.
func SerialTime(totalNodes int, method string) float64 {
	h := cluster.NewHost("ref", cluster.HP715)
	return float64(totalNodes) / h.Speed(method)
}
