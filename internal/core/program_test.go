package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/grid"
)

// link is one message of an exchange as the frozen loops below list it.
type link struct {
	peer, dir int
	data      []float64
}

// refExchange2D is Program2D.Sends and Expects as they stood before the
// neighbour table: the stencil's directions, each looked up in the
// decomposition on every call.
func refExchange2D(p *Program2D, phase int) (sends, expects []link) {
	m := p.M.(interface{ Exchanges(phase int) bool })
	if !m.Exchanges(phase) {
		return nil, nil
	}
	for _, dir := range decomp.Dirs(decomp.StencilFor(p.M.MethodName())) {
		n := p.D.Neighbor(p.Sub, dir)
		if n == nil {
			continue
		}
		sends = append(sends, link{n.Rank, int(dir.Opposite()), p.M.Pack(phase, dir, nil)})
		expects = append(expects, link{peer: n.Rank, dir: int(dir)})
	}
	return sends, expects
}

// refExchange3D is the same for Program3D.
func refExchange3D(p *Program3D, phase int) (sends, expects []link) {
	for _, dir := range p.M.ExchangeDirs(phase) {
		n := p.D.Neighbor(p.Sub, dir)
		if n == nil {
			continue
		}
		sends = append(sends, link{n.Rank, int(dir.Opposite()), p.M.Pack(phase, dir, nil)})
		expects = append(expects, link{peer: n.Rank, dir: int(dir)})
	}
	return sends, expects
}

// sameExchange compares a program's Sends and Expects with the frozen
// loops': same peers and direction codes in the same order, same payloads.
func sameExchange(t *testing.T, name string, p Program, phase int, sends, expects []link) {
	t.Helper()
	got := p.Sends(phase)
	if len(got) != len(sends) {
		t.Fatalf("%s phase %d: %d sends, reference %d", name, phase, len(got), len(sends))
	}
	for i, s := range got {
		if s.Peer != sends[i].peer || s.Dir != sends[i].dir || !slices.Equal(s.Data, sends[i].data) {
			t.Fatalf("%s phase %d send %d: to %d dir %d (%d values), reference to %d dir %d (%d values)",
				name, phase, i, s.Peer, s.Dir, len(s.Data), sends[i].peer, sends[i].dir, len(sends[i].data))
		}
	}
	exp := p.Expects(phase)
	if len(exp) != len(expects) {
		t.Fatalf("%s phase %d: %d expects, reference %d", name, phase, len(exp), len(expects))
	}
	for i, e := range exp {
		if e.Peer != expects[i].peer || e.Dir != expects[i].dir {
			t.Fatalf("%s phase %d expect %d: %+v, reference %+v", name, phase, i, e, expects[i])
		}
	}
}

// TestNeighbourTableMatchesDecomposition: over seeded random lattices — both
// methods, finite differences on star and full decompositions (lattice
// Boltzmann is refused on a star one), every periodic combination, with
// subregions deactivated — the table a Program builds once equals
// d.Neighbor for every rank and direction, and Sends / Expects list the
// same messages in the same order as the per-call lookups did.
func TestNeighbourTableMatchesDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	par := fluid.DefaultParams()
	par.Eps = 0
	methods := []string{MethodLB, MethodFD}
	for trial := 0; trial < 48; trial++ {
		jx, jy := 1+rng.Intn(4), 1+rng.Intn(4)
		gx, gy := jx*(3+rng.Intn(3)), jy*(3+rng.Intn(3))
		method, st := methods[trial/4%2], decomp.Stencil(rng.Intn(2))
		if method == MethodLB {
			st = decomp.Full
		}
		d, err := decomp.New2D(jx, jy, gx, gy, st)
		if err != nil {
			t.Fatal(err)
		}
		d.PeriodicX, d.PeriodicY = trial&1 != 0, trial&2 != 0
		mask := fluid.NewMask2D(gx, gy)
		for _, s := range d.ActiveSubregions() {
			if (s.I != 0 || s.J != 0) && rng.Intn(4) == 0 {
				for y := s.Y0; y < s.Y0+s.NY; y++ {
					for x := s.X0; x < s.X0+s.NX; x++ {
						mask.Set(x, y, fluid.Wall)
					}
				}
			}
		}
		d.DeactivateWalls(mask.Solid)
		cfg := &Config2D{Method: method, Par: par, Mask: mask, D: d,
			InitRho: func(x, y int) float64 { return 1 + 0.01*float64(x) + 0.001*float64(y) }}
		for rank := 0; rank < d.P(); rank++ {
			p, err := cfg.NewProgram(rank)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("trial %d (%s, %v, rank %d of %d)", trial, cfg.Method, d, rank, d.P())
			for dir := decomp.West; int(dir) < decomp.NumDirs; dir++ {
				want := peer{rank: -1}
				if n := d.Neighbor(p.Sub, dir); n != nil {
					want = peer{n.Rank, int(dir.Opposite())}
				}
				if p.peer[dir] != want {
					t.Fatalf("%s dir %v: table has %+v, decomposition %+v", name, dir, p.peer[dir], want)
				}
			}
			for ph := 0; ph < p.Phases(); ph++ {
				sends, expects := refExchange2D(p, ph)
				sameExchange(t, name, p, ph, sends, expects)
			}
		}
	}
	for trial := 0; trial < 32; trial++ {
		jx, jy, jz := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3)
		gx, gy, gz := jx*(3+rng.Intn(2)), jy*(3+rng.Intn(2)), jz*(3+rng.Intn(2))
		d, err := decomp.New3D(jx, jy, jz, gx, gy, gz)
		if err != nil {
			t.Fatal(err)
		}
		d.PeriodicX, d.PeriodicY, d.PeriodicZ = trial&1 != 0, trial&2 != 0, trial&4 != 0
		for _, s := range d.ActiveSubregions() {
			if (s.I != 0 || s.J != 0 || s.K != 0) && rng.Intn(4) == 0 {
				d.Deactivate(s.I, s.J, s.K)
			}
		}
		cfg := &Config3D{Method: methods[trial/8%2], Par: par, Mask: fluid.NewMask3D(gx, gy, gz), D: d,
			InitRho: func(x, y, z int) float64 { return 1 + 0.01*float64(x) + 0.001*float64(y-z) }}
		for rank := 0; rank < d.P(); rank++ {
			p, err := cfg.NewProgram(rank)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("3D trial %d (%s, %v, rank %d)", trial, cfg.Method, d, rank)
			for dir := decomp.West; int(dir) < decomp.NumDirs; dir++ {
				want := peer{rank: -1}
				if n := d.Neighbor(p.Sub, dir); n != nil {
					want = peer{n.Rank, int(dir.Opposite())}
				}
				if p.peer[dir] != want {
					t.Fatalf("%s dir %v: table has %+v, decomposition %+v", name, dir, p.peer[dir], want)
				}
			}
			for ph := 0; ph < p.Phases(); ph++ {
				sends, expects := refExchange3D(p, ph)
				sameExchange(t, name, p, ph, sends, expects)
			}
		}
	}
}

// TestExchangeListsAllocateNothing: once a Program has sized its buffers,
// listing and packing a step's messages allocates nothing, in 2D and 3D.
func TestExchangeListsAllocateNothing(t *testing.T) {
	cfg3 := resizeCfg3D(t, MethodLB, 2, 1, 1)
	p3, err := cfg3.NewProgram(0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := channelConfig(t, MethodLB, 2, 2, 24, 16).NewProgram(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]Program{"2D": p2, "3D": p3} {
		step := func() {
			for ph := 0; ph < p.Phases(); ph++ {
				if len(p.Sends(ph)) != len(p.Expects(ph)) {
					t.Fatalf("%s phase %d: sends and expects differ in number", name, ph)
				}
			}
		}
		step()
		if n := testing.AllocsPerRun(50, step); n != 0 {
			t.Errorf("%s: Sends + Expects allocate %v times a step, want 0", name, n)
		}
	}
}

func sameSlots(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d slots, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s slot %d: %v, reference %v", name, i, got[i], want[i])
		}
	}
}

// TestLatticeFillMatchesReference: lattice.fill writes, in every slot of a
// rank's raw storage (ghosts included), what the frozen reference fill
// (refGlobalAt2D/3D through Set on a grid field) leaves there — periodic
// and open faces in every combination, a field given and a nil one.
func TestLatticeFillMatchesReference(t *testing.T) {
	const def = 1.25
	f2 := func(x, y int) float64 { return 1 + 0.01*float64(x) + 0.001*float64(y) }
	f3 := func(x, y, z int) float64 { return 1 + 0.01*float64(x) + 0.001*float64(y) - 0.0001*float64(z) }
	for per := 0; per < 8; per++ {
		d2, err := decomp.New2D(3, 2, 24, 18, decomp.Full)
		if err != nil {
			t.Fatal(err)
		}
		d2.PeriodicX, d2.PeriodicY = per&1 != 0, per&2 != 0
		cfg2 := &Config2D{D: d2, InitRho: f2}
		lat := cfg2.lattice()
		for k, f := range []func(x, y int) float64{f2, nil} {
			for rank, b := range lat.boxes {
				ref := grid.NewField2D(b.nx, b.ny, 1)
				for y := -1; y <= b.ny; y++ {
					for x := -1; x <= b.nx; x++ {
						ref.Set(x, y, refGlobalAt2D(cfg2, f, b.x0+x, b.y0+y, def))
					}
				}
				data := make([]float64, len(ref.Data()))
				lat.fill(data, b, cfg2.initial()[k], def)
				sameSlots(t, fmt.Sprintf("2D periodic=%02b rank %d nil=%v", per, rank, f == nil), ref.Data(), data)
			}
		}

		d3, err := decomp.New3D(2, 1, 2, 12, 9, 8)
		if err != nil {
			t.Fatal(err)
		}
		d3.PeriodicX, d3.PeriodicY, d3.PeriodicZ = per&1 != 0, per&2 != 0, per&4 != 0
		cfg3 := &Config3D{D: d3, InitRho: f3}
		lat = cfg3.lattice()
		for k, f := range []func(x, y, z int) float64{f3, nil} {
			for rank, b := range lat.boxes {
				ref := grid.NewField3D(b.nx, b.ny, b.nz, 1)
				for z := -1; z <= b.nz; z++ {
					for y := -1; y <= b.ny; y++ {
						for x := -1; x <= b.nx; x++ {
							ref.Set(x, y, z, refGlobalAt3D(cfg3, f, b.x0+x, b.y0+y, b.z0+z, def))
						}
					}
				}
				data := make([]float64, len(ref.Data()))
				lat.fill(data, b, cfg3.initial()[k], def)
				sameSlots(t, fmt.Sprintf("3D periodic=%03b rank %d nil=%v", per, rank, f == nil), ref.Data(), data)
			}
		}
	}
}
