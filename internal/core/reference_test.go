package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fd"
	"repro/internal/fluid"
	"repro/internal/lbm"
)

// Frozen oracles for the control plane. Until the rebuild became
// restore-only and the re-split a direct cut, a rebuild was a full
// NewProgram (solver constructor with its own initial condition, the
// config's initial fields through Set and globalAt, a second
// InitEquilibrium) followed by RestoreState, and a re-split stitched
// element by element and cut each new rank into the dump of a fresh
// Program built for the purpose. Those paths are kept here, as they stood,
// as the references the product paths must equal bit for bit.

func refGlobalAt2D(c *Config2D, f func(x, y int) float64, gx, gy int, def float64) float64 {
	gx = wrapCoord(gx, c.D.GX, c.D.PeriodicX)
	gy = wrapCoord(gy, c.D.GY, c.D.PeriodicY)
	if gx < 0 || gx >= c.D.GX || gy < 0 || gy >= c.D.GY {
		return def
	}
	if f == nil {
		return def
	}
	return f(gx, gy)
}

func refNewProgram2D(c *Config2D, rank int) (*Program2D, error) {
	sub := c.D.ByRank(rank)
	mask := LocalMask2D(c.D, sub, c.Mask)
	fill := func(rho, vx, vy interface{ Set(x, y int, v float64) }) {
		for y := -1; y <= sub.NY; y++ {
			for x := -1; x <= sub.NX; x++ {
				gx, gy := sub.X0+x, sub.Y0+y
				rho.Set(x, y, refGlobalAt2D(c, c.InitRho, gx, gy, c.Par.Rho0))
				vx.Set(x, y, refGlobalAt2D(c, c.InitVx, gx, gy, 0))
				vy.Set(x, y, refGlobalAt2D(c, c.InitVy, gx, gy, 0))
			}
		}
	}
	var m Method
	switch c.Method {
	case MethodFD:
		s, err := fd.NewSolver2D(sub.NX, sub.NY, c.Par, mask)
		if err != nil {
			return nil, err
		}
		fill(s.Rho, s.Vx, s.Vy)
		m = s
	case MethodLB:
		s, err := lbm.NewSolver2D(sub.NX, sub.NY, c.Par, mask)
		if err != nil {
			return nil, err
		}
		fill(s.Rho, s.Vx, s.Vy)
		s.InitEquilibrium()
		m = s
	default:
		return nil, fmt.Errorf("core: unknown method %q", c.Method)
	}
	m.SetWorkers(c.workerBudget())
	return NewProgram2D(m, c.D, rank), nil
}

func refRebuild2D(c *Config2D, st *dump.State) (*Program2D, error) {
	p, err := refNewProgram2D(c, st.Rank)
	if err != nil {
		return nil, err
	}
	if err := p.RestoreState(st); err != nil {
		return nil, err
	}
	return p, nil
}

func refGlobalAt3D(c *Config3D, f func(x, y, z int) float64, gx, gy, gz int, def float64) float64 {
	gx = wrapCoord(gx, c.D.GX, c.D.PeriodicX)
	gy = wrapCoord(gy, c.D.GY, c.D.PeriodicY)
	gz = wrapCoord(gz, c.D.GZ, c.D.PeriodicZ)
	if gx < 0 || gx >= c.D.GX || gy < 0 || gy >= c.D.GY || gz < 0 || gz >= c.D.GZ {
		return def
	}
	if f == nil {
		return def
	}
	return f(gx, gy, gz)
}

func refNewProgram3D(c *Config3D, rank int) (*Program3D, error) {
	sub := c.D.ByRank(rank)
	mask := LocalMask3D(c.D, sub, c.Mask)
	fill := func(rho, vx, vy, vz interface{ Set(x, y, z int, v float64) }) {
		for z := -1; z <= sub.NZ; z++ {
			for y := -1; y <= sub.NY; y++ {
				for x := -1; x <= sub.NX; x++ {
					gx, gy, gz := sub.X0+x, sub.Y0+y, sub.Z0+z
					rho.Set(x, y, z, refGlobalAt3D(c, c.InitRho, gx, gy, gz, c.Par.Rho0))
					vx.Set(x, y, z, refGlobalAt3D(c, c.InitVx, gx, gy, gz, 0))
					vy.Set(x, y, z, refGlobalAt3D(c, c.InitVy, gx, gy, gz, 0))
					vz.Set(x, y, z, refGlobalAt3D(c, c.InitVz, gx, gy, gz, 0))
				}
			}
		}
	}
	var m Method
	switch c.Method {
	case MethodFD:
		s, err := fd.NewSolver3D(sub.NX, sub.NY, sub.NZ, c.Par, mask)
		if err != nil {
			return nil, err
		}
		fill(s.Rho, s.Vx, s.Vy, s.Vz)
		m = s
	case MethodLB:
		s, err := lbm.NewSolver3D(sub.NX, sub.NY, sub.NZ, c.Par, mask)
		if err != nil {
			return nil, err
		}
		fill(s.Rho, s.Vx, s.Vy, s.Vz)
		s.InitEquilibrium()
		m = s
	default:
		return nil, fmt.Errorf("core: unknown method %q", c.Method)
	}
	m.SetWorkers(c.workerBudget())
	return NewProgram3D(m, c.D, rank), nil
}

func refRebuild3D(c *Config3D, st *dump.State) (*Program3D, error) {
	p, err := refNewProgram3D(c, st.Rank)
	if err != nil {
		return nil, err
	}
	if err := p.RestoreState(st); err != nil {
		return nil, err
	}
	return p, nil
}

func refCommonStep(states []*dump.State) (int, error) {
	if len(states) == 0 {
		return 0, fmt.Errorf("no dumps")
	}
	s := states[0].Step
	for _, st := range states {
		if st.Step != s {
			return 0, fmt.Errorf("dumps at different steps (%d and %d)", s, st.Step)
		}
	}
	return s, nil
}

func refResplit2D(cfg *Config2D, states []*dump.State, sh decomp.Shape) ([]*dump.State, error) {
	if cfg.Par.Eps != 0 {
		return nil, fmt.Errorf("resize requires the fourth-order filter off")
	}
	if cfg.D.P() != cfg.D.Total() {
		return nil, fmt.Errorf("resize of a decomposition with deactivated subregions")
	}
	if len(states) != cfg.D.P() {
		return nil, fmt.Errorf("%d dumps for %d ranks", len(states), cfg.D.P())
	}
	step, err := refCommonStep(states)
	if err != nil {
		return nil, err
	}
	newD, err := decomp.NewShaped(sh, cfg.D.Stencil)
	if err != nil {
		return nil, err
	}
	if newD.GX != cfg.D.GX || newD.GY != cfg.D.GY {
		return nil, fmt.Errorf("shape covers %dx%d, grid is %dx%d", newD.GX, newD.GY, cfg.D.GX, cfg.D.GY)
	}
	newD.PeriodicX, newD.PeriodicY = cfg.D.PeriodicX, cfg.D.PeriodicY

	oldD := cfg.D
	global := make(map[string][]float64)
	for _, st := range states {
		sub := oldD.ByRank(st.Rank)
		for name, data := range st.Fields {
			g, ok := global[name]
			if !ok {
				g = make([]float64, oldD.GX*oldD.GY)
				global[name] = g
			}
			for y := 0; y < sub.NY; y++ {
				for x := 0; x < sub.NX; x++ {
					g[(sub.Y0+y)*oldD.GX+(sub.X0+x)] = data[(y+1)*(sub.NX+2)+(x+1)]
				}
			}
		}
	}

	*cfg.D = *newD
	out := make([]*dump.State, 0, cfg.D.P())
	for rank := 0; rank < cfg.D.P(); rank++ {
		prog, err := refNewProgram2D(cfg, rank)
		if err != nil {
			return nil, fmt.Errorf("cutting rank %d: %w", rank, err)
		}
		st := prog.DumpState(step, 0)
		sub := cfg.D.ByRank(rank)
		for _, name := range slices.Sorted(maps.Keys(st.Fields)) {
			data := st.Fields[name]
			g := global[name]
			if g == nil {
				return nil, fmt.Errorf("old dumps lack field %q", name)
			}
			for y := -1; y <= sub.NY; y++ {
				gy := wrapCoord(sub.Y0+y, cfg.D.GY, cfg.D.PeriodicY)
				if gy < 0 || gy >= cfg.D.GY {
					continue
				}
				for x := -1; x <= sub.NX; x++ {
					gx := wrapCoord(sub.X0+x, cfg.D.GX, cfg.D.PeriodicX)
					if gx < 0 || gx >= cfg.D.GX {
						continue
					}
					data[(y+1)*(sub.NX+2)+(x+1)] = g[gy*cfg.D.GX+gx]
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

func refResplit3D(cfg *Config3D, states []*dump.State, sh decomp.Shape) ([]*dump.State, error) {
	if cfg.Par.Eps != 0 {
		return nil, fmt.Errorf("resize requires the fourth-order filter off")
	}
	if len(states) != cfg.D.P() {
		return nil, fmt.Errorf("%d dumps for %d ranks", len(states), cfg.D.P())
	}
	step, err := refCommonStep(states)
	if err != nil {
		return nil, err
	}
	newD, err := decomp.NewShaped(sh, decomp.Star)
	if err != nil {
		return nil, err
	}
	if newD.GX != cfg.D.GX || newD.GY != cfg.D.GY || newD.GZ != cfg.D.GZ {
		return nil, fmt.Errorf("shape covers %dx%dx%d, grid is %dx%dx%d",
			newD.GX, newD.GY, newD.GZ, cfg.D.GX, cfg.D.GY, cfg.D.GZ)
	}
	newD.PeriodicX, newD.PeriodicY, newD.PeriodicZ = cfg.D.PeriodicX, cfg.D.PeriodicY, cfg.D.PeriodicZ

	oldD := cfg.D
	global := make(map[string][]float64)
	for _, st := range states {
		sub := oldD.ByRank(st.Rank)
		sx, sxy := sub.NX+2, (sub.NX+2)*(sub.NY+2)
		for name, data := range st.Fields {
			g, ok := global[name]
			if !ok {
				g = make([]float64, oldD.GX*oldD.GY*oldD.GZ)
				global[name] = g
			}
			for z := 0; z < sub.NZ; z++ {
				for y := 0; y < sub.NY; y++ {
					for x := 0; x < sub.NX; x++ {
						gi := ((sub.Z0+z)*oldD.GY+(sub.Y0+y))*oldD.GX + (sub.X0 + x)
						g[gi] = data[(z+1)*sxy+(y+1)*sx+(x+1)]
					}
				}
			}
		}
	}

	*cfg.D = *newD
	out := make([]*dump.State, 0, cfg.D.P())
	for rank := 0; rank < cfg.D.P(); rank++ {
		prog, err := refNewProgram3D(cfg, rank)
		if err != nil {
			return nil, fmt.Errorf("cutting rank %d: %w", rank, err)
		}
		st := prog.DumpState(step, 0)
		sub := cfg.D.ByRank(rank)
		sx, sxy := sub.NX+2, (sub.NX+2)*(sub.NY+2)
		for _, name := range slices.Sorted(maps.Keys(st.Fields)) {
			data := st.Fields[name]
			g := global[name]
			if g == nil {
				return nil, fmt.Errorf("old dumps lack field %q", name)
			}
			for z := -1; z <= sub.NZ; z++ {
				gz := wrapCoord(sub.Z0+z, cfg.D.GZ, cfg.D.PeriodicZ)
				if gz < 0 || gz >= cfg.D.GZ {
					continue
				}
				for y := -1; y <= sub.NY; y++ {
					gy := wrapCoord(sub.Y0+y, cfg.D.GY, cfg.D.PeriodicY)
					if gy < 0 || gy >= cfg.D.GY {
						continue
					}
					for x := -1; x <= sub.NX; x++ {
						gx := wrapCoord(sub.X0+x, cfg.D.GX, cfg.D.PeriodicX)
						if gx < 0 || gx >= cfg.D.GX {
							continue
						}
						data[(z+1)*sxy+(y+1)*sx+(x+1)] = g[(gz*cfg.D.GY+gy)*cfg.D.GX+gx]
					}
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// sameStates requires two dump sets to agree on every header field and on
// every slot of every field, bit for bit.
func sameStates(t *testing.T, name string, want, got []*dump.State) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d dumps, reference has %d", name, len(got), len(want))
	}
	for r := range want {
		w, g := want[r], got[r]
		if w.Rank != g.Rank || w.Step != g.Step || w.Epoch != g.Epoch || w.Method != g.Method ||
			w.NX != g.NX || w.NY != g.NY || w.NZ != g.NZ {
			t.Fatalf("%s rank %d: header %+v, reference %+v", name, r, headerOf(g), headerOf(w))
		}
		if !slices.Equal(slices.Sorted(maps.Keys(w.Fields)), slices.Sorted(maps.Keys(g.Fields))) {
			t.Fatalf("%s rank %d: fields %v, reference %v", name, r,
				slices.Sorted(maps.Keys(g.Fields)), slices.Sorted(maps.Keys(w.Fields)))
		}
		for _, f := range slices.Sorted(maps.Keys(w.Fields)) {
			wd, gd := w.Fields[f], g.Fields[f]
			if len(wd) != len(gd) {
				t.Fatalf("%s rank %d field %s: %d values, reference %d", name, r, f, len(gd), len(wd))
			}
			for i := range wd {
				if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
					t.Fatalf("%s rank %d field %s slot %d: %v, reference %v", name, r, f, i, gd[i], wd[i])
				}
			}
		}
	}
}

func headerOf(st *dump.State) dump.State {
	h := *st
	h.Fields = nil
	return h
}

// sameValue walks two values of one type in step and requires every number,
// flag and string reachable from them to be equal, floats by their bits.
// It reads unexported fields too, so comparing two solvers covers every
// array they own — current and hidden buffers, cell types, row flags, the
// filter plan's bitmap — including fields added after this was written.
// Function values cannot be compared and are only required to be both nil
// or both set; a kind the walk has no rule for fails the test.
func sameValue(t *testing.T, path string, a, b reflect.Value, seen map[[2]uintptr]bool) {
	t.Helper()
	if a.Kind() != b.Kind() {
		t.Fatalf("%s: kinds %v and %v", path, a.Kind(), b.Kind())
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			t.Fatalf("%s: %v, reference %v", path, b.Float(), a.Float())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			t.Fatalf("%s: %v, reference %v", path, b.Bool(), a.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			t.Fatalf("%s: %d, reference %d", path, b.Int(), a.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			t.Fatalf("%s: %d, reference %d", path, b.Uint(), a.Uint())
		}
	case reflect.String:
		if a.String() != b.String() {
			t.Fatalf("%s: %q, reference %q", path, b.String(), a.String())
		}
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			t.Fatalf("%s: one function is nil", path)
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			t.Fatalf("%s: %d elements, reference %d", path, b.Len(), a.Len())
		}
		for i := 0; i < a.Len(); i++ {
			sameValue(t, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), seen)
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			t.Fatalf("%s: one side is nil", path)
		}
		if a.IsNil() {
			return
		}
		if a.Kind() == reflect.Pointer {
			key := [2]uintptr{a.Pointer(), b.Pointer()}
			if seen[key] {
				return
			}
			seen[key] = true
		}
		sameValue(t, path, a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			sameValue(t, path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), seen)
		}
	default:
		t.Fatalf("%s: no rule for comparing a %v", path, a.Kind())
	}
}

// sameSolver compares everything two programs' methods own.
func sameSolver(t *testing.T, name string, want, got any) {
	t.Helper()
	sameValue(t, name, reflect.ValueOf(want), reflect.ValueOf(got), map[[2]uintptr]bool{})
}

// stepLockstep advances a set of programs in phase lockstep (the sequential
// executor's loop over the Program interface, for either dimension).
func stepLockstep(progs []Program, steps int) {
	type delivery struct {
		to, dir int
		data    []float64
	}
	for s := 0; s < steps; s++ {
		for ph := 0; ph < progs[0].Phases(); ph++ {
			for _, p := range progs {
				p.Compute(ph)
			}
			var inbox []delivery
			for _, p := range progs {
				for _, snd := range p.Sends(ph) {
					inbox = append(inbox, delivery{snd.Peer, snd.Dir, append([]float64(nil), snd.Data...)})
				}
			}
			for _, d := range inbox {
				progs[d.to].Unpack(ph, d.dir, d.data)
			}
		}
	}
}

// seamMask2D is a mask with walls, inlets and outlets on and beside the
// seams of every decomposition the tests cut a gx-by-gy grid into, plus a
// sprinkle of each type elsewhere.
func seamMask2D(rng *rand.Rand, gx, gy int) *fluid.Mask2D {
	m := fluid.NewMask2D(gx, gy)
	for _, x := range []int{0, gx/3 - 1, gx / 3, gx/2 - 1, gx / 2, gx - 1} {
		m.Set(x, rng.Intn(gy), fluid.Wall)
		m.Set(x, rng.Intn(gy), fluid.Inlet)
		m.Set(x, rng.Intn(gy), fluid.Outlet)
	}
	for _, y := range []int{0, gy/3 - 1, gy / 3, gy/2 - 1, gy / 2, gy - 1} {
		m.Set(rng.Intn(gx), y, fluid.Wall)
		m.Set(rng.Intn(gx), y, fluid.Inlet)
		m.Set(rng.Intn(gx), y, fluid.Outlet)
	}
	for k := 0; k < gx*gy/20; k++ {
		m.Set(rng.Intn(gx), rng.Intn(gy), fluid.CellType(1+rng.Intn(3)))
	}
	return m
}

// seamMask3D is seamMask2D for a box.
func seamMask3D(rng *rand.Rand, gx, gy, gz int) *fluid.Mask3D {
	m := fluid.NewMask3D(gx, gy, gz)
	for _, x := range []int{0, gx/4 - 1, gx / 4, gx/2 - 1, gx / 2, gx - 1} {
		for c := fluid.Wall; c <= fluid.Outlet; c++ {
			m.Set(x, rng.Intn(gy), rng.Intn(gz), c)
		}
	}
	for _, y := range []int{0, gy/3 - 1, gy / 3, gy/2 - 1, gy / 2, gy - 1} {
		for c := fluid.Wall; c <= fluid.Outlet; c++ {
			m.Set(rng.Intn(gx), y, rng.Intn(gz), c)
		}
	}
	for _, z := range []int{0, gz/2 - 1, gz / 2, gz - 1} {
		for c := fluid.Wall; c <= fluid.Outlet; c++ {
			m.Set(rng.Intn(gx), rng.Intn(gy), z, c)
		}
	}
	for k := 0; k < gx*gy*gz/30; k++ {
		m.Set(rng.Intn(gx), rng.Intn(gy), rng.Intn(gz), fluid.CellType(1+rng.Intn(3)))
	}
	return m
}

// randomize overwrites every slot of every field, ghosts included, so a cut
// that reads the wrong slot anywhere shows.
func randomize(rng *rand.Rand, states []*dump.State) {
	for _, st := range states {
		for _, name := range slices.Sorted(maps.Keys(st.Fields)) {
			for i := range st.Fields[name] {
				st.Fields[name][i] = rng.NormFloat64()
			}
		}
	}
}

// TestResplitMatchesReference2D: the direct cut equals the frozen re-split
// on every slot of every field and every header field, for both methods,
// uniform and weighted shapes, grow / shrink / transpose, every periodic
// combination, and a mask with walls, inlets and outlets on the seams.
func TestResplitMatchesReference2D(t *testing.T) {
	const gx, gy = 24, 18
	uniform := func(jx, jy int) decomp.Shape { return decomp.UniformShape(jx, jy, 0, gx, gy, 0) }
	moves := []struct {
		name     string
		from, to decomp.Shape
	}{
		{"grow 2x2->3x2", uniform(2, 2), uniform(3, 2)},
		{"shrink 3x2->2x1", uniform(3, 2), uniform(2, 1)},
		{"transpose 3x2->2x3", uniform(3, 2), uniform(2, 3)},
		{"to one rank", uniform(2, 3), uniform(1, 1)},
		{"weighted", decomp.Shape{X: []int{5, 12, 7}, Y: []int{11, 7}}, decomp.Shape{X: []int{1, 23}, Y: []int{4, 6, 8}}},
	}
	rng := rand.New(rand.NewSource(171))
	for _, method := range []string{MethodLB, MethodFD} {
		for per := 0; per < 4; per++ {
			for _, mv := range moves {
				name := fmt.Sprintf("%s periodic=%02b %s", method, per, mv.name)
				d, err := decomp.NewShaped(mv.from, decomp.Full)
				if err != nil {
					t.Fatal(err)
				}
				d.PeriodicX, d.PeriodicY = per&1 != 0, per&2 != 0
				par := fluid.DefaultParams()
				par.Eps, par.Rho0 = 0, 1.25
				cfg := &Config2D{
					Method: method, Par: par, Mask: seamMask2D(rng, gx, gy), D: d,
					InitRho: func(x, y int) float64 { return 1 + 0.01*float64(x) + 0.001*float64(y) },
					InitVx:  func(x, y int) float64 { return 0.001 * float64(x-y) },
				}
				old, err := Decompose2D(cfg)
				if err != nil {
					t.Fatal(err)
				}
				randomize(rng, old)
				for _, st := range old {
					st.Step = 7
				}
				refCfg, newCfg := *cfg, *cfg
				refD, newD := *d, *d
				refCfg.D, newCfg.D = &refD, &newD
				want, err := refResplit2D(&refCfg, old, mv.to)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				_, got, err := resplit[*Program2D](&newCfg, old, mv.to, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameStates(t, name, want, got)
				sameSolver(t, name+" decomposition", refCfg.D, newCfg.D)
			}
		}
	}
}

// TestResplitMatchesReference3D is the 3D analogue, over the 2x2x1 / 1x3x2
// / 4x1x1 shapes and a weighted pair.
func TestResplitMatchesReference3D(t *testing.T) {
	const gx, gy, gz = 12, 9, 8
	uniform := func(jx, jy, jz int) decomp.Shape { return decomp.UniformShape3D(jx, jy, jz, gx, gy, gz) }
	moves := []struct {
		name     string
		from, to decomp.Shape
	}{
		{"2x2x1->1x3x2", uniform(2, 2, 1), uniform(1, 3, 2)},
		{"1x3x2->4x1x1", uniform(1, 3, 2), uniform(4, 1, 1)},
		{"4x1x1->2x2x1", uniform(4, 1, 1), uniform(2, 2, 1)},
		{"2x1x1->1x1x1", uniform(2, 1, 1), uniform(1, 1, 1)},
		{"weighted", decomp.Shape{X: []int{5, 7}, Y: []int{2, 7}, Z: []int{8}},
			decomp.Shape{X: []int{3, 1, 8}, Y: []int{9}, Z: []int{2, 6}}},
	}
	rng := rand.New(rand.NewSource(173))
	for _, method := range []string{MethodLB, MethodFD} {
		for per := 0; per < 8; per++ {
			for _, mv := range moves {
				name := fmt.Sprintf("%s periodic=%03b %s", method, per, mv.name)
				d, err := decomp.NewShaped(mv.from, decomp.Star)
				if err != nil {
					t.Fatal(err)
				}
				d.PeriodicX, d.PeriodicY, d.PeriodicZ = per&1 != 0, per&2 != 0, per&4 != 0
				par := fluid.DefaultParams()
				par.Eps, par.Rho0 = 0, 1.25
				cfg := &Config3D{
					Method: method, Par: par, Mask: seamMask3D(rng, gx, gy, gz), D: d,
					InitRho: func(x, y, z int) float64 { return 1 + 0.01*float64(x) + 0.001*float64(y-z) },
					InitVz:  func(x, y, z int) float64 { return 0.001 * float64(x+z) },
				}
				old, err := decompose(cfg)
				if err != nil {
					t.Fatal(err)
				}
				randomize(rng, old)
				for _, st := range old {
					st.Step = 7
				}
				refCfg, newCfg := *cfg, *cfg
				refD, newD := *d, *d
				refCfg.D, newCfg.D = &refD, &newD
				want, err := refResplit3D(&refCfg, old, mv.to)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				_, got, err := resplit[*Program3D](&newCfg, old, mv.to, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameStates(t, name, want, got)
				sameSolver(t, name+" decomposition", refCfg.D, newCfg.D)
			}
		}
	}
}

// TestResplitOutsideGhostIsRho0: beyond a non-periodic face the cut leaves
// what a fresh rank holds, Rho0 in rho and zero elsewhere. (The reference
// comparison above fails too if rho is cut as zero there; this names the
// rule.)
func TestResplitOutsideGhostIsRho0(t *testing.T) {
	cfg := resizeCfg3D(t, MethodLB, 2, 1, 1)
	cfg.D.PeriodicX, cfg.D.PeriodicZ = false, false
	cfg.Par.Rho0 = 1.25
	old, err := decompose(cfg)
	if err != nil {
		t.Fatal(err)
	}
	randomize(rand.New(rand.NewSource(5)), old)
	_, got, err := resplit[*Program3D](cfg, old, decomp.UniformShape3D(1, 2, 1, 12, 10, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range got {
		for _, name := range slices.Sorted(maps.Keys(st.Fields)) {
			want := 0.0
			if name == "rho" {
				want = 1.25
			}
			// Local node (-1, 0, 0) lies beyond the x = 0 face of both ranks.
			at := (1*(st.NY+2) + 1) * (st.NX + 2)
			if v := st.Fields[name][at]; v != want {
				t.Errorf("rank %d field %s beyond the x face: %v, want %v", st.Rank, name, v, want)
			}
		}
	}
}

// rebuildCase is one config seen through the Program interface, so the 2D
// and 3D rebuild comparisons share their body.
type rebuildCase struct {
	name    string
	ranks   int
	fresh   func(rank int) (Program, error)
	ref     func(st *dump.State) (Program, error)
	restore func(st *dump.State) (Program, error)
	solver  func(p Program) any
}

// TestRebuildMatchesReference: a restore-only rebuild equals the frozen
// NewProgram + RestoreState rebuild on everything the solver owns, for all
// four solvers, filter off and on, and stays equal when both are stepped on.
func TestRebuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(177))
	for _, method := range []string{MethodLB, MethodFD} {
		for _, eps := range []float64{0, 0.01} {
			par := fluid.DefaultParams()
			par.Nu, par.Eps, par.ForceX = 0.1, eps, 1e-5

			d2, err := decomp.NewShaped(decomp.Shape{X: []int{13, 11}, Y: []int{8, 10}}, decomp.Full)
			if err != nil {
				t.Fatal(err)
			}
			d2.PeriodicX = true
			cfg2 := &Config2D{
				Method: method, Par: par, Mask: seamMask2D(rng, 24, 18), D: d2,
				InitRho: func(x, y int) float64 { return 1 + 0.001*math.Sin(float64(x)/3) },
				InitVy:  func(x, y int) float64 { return 1e-4 * float64(y%5) },
			}
			d3, err := decomp.NewShaped(decomp.Shape{X: []int{7, 5}, Y: []int{9}, Z: []int{3, 5}}, decomp.Star)
			if err != nil {
				t.Fatal(err)
			}
			d3.PeriodicX, d3.PeriodicZ = true, true
			cfg3 := &Config3D{
				Method: method, Par: par, Mask: seamMask3D(rng, 12, 9, 8), D: d3,
				InitRho: func(x, y, z int) float64 { return 1 + 0.001*math.Sin(float64(x+z)/3) },
				InitVx:  func(x, y, z int) float64 { return 1e-4 * float64(y%4) },
			}
			for _, c := range []rebuildCase{
				{
					name: fmt.Sprintf("%s eps=%v 2D", method, eps), ranks: d2.P(),
					fresh:   func(rank int) (Program, error) { return cfg2.NewProgram(rank) },
					ref:     func(st *dump.State) (Program, error) { return refRebuild2D(cfg2, st) },
					restore: func(st *dump.State) (Program, error) { return restoreProgram(cfg2, st) },
					solver:  func(p Program) any { return p.(*Program2D).M },
				},
				{
					name: fmt.Sprintf("%s eps=%v 3D", method, eps), ranks: d3.P(),
					fresh:   func(rank int) (Program, error) { return cfg3.NewProgram(rank) },
					ref:     func(st *dump.State) (Program, error) { return refRebuild3D(cfg3, st) },
					restore: func(st *dump.State) (Program, error) { return restoreProgram(cfg3, st) },
					solver:  func(p Program) any { return p.(*Program3D).M },
				},
			} {
				var live, want, got []Program
				for rank := 0; rank < c.ranks; rank++ {
					p, err := c.fresh(rank)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, p)
				}
				stepLockstep(live, 3)
				for rank, p := range live {
					st := p.DumpState(3, 0)
					w, err := c.ref(st)
					if err != nil {
						t.Fatal(err)
					}
					g, err := c.restore(st)
					if err != nil {
						t.Fatal(err)
					}
					sameSolver(t, fmt.Sprintf("%s rank %d", c.name, rank), c.solver(w), c.solver(g))
					want, got = append(want, w), append(got, g)
				}
				stepLockstep(want, 2)
				stepLockstep(got, 2)
				for rank := range want {
					sameSolver(t, fmt.Sprintf("%s rank %d, 2 steps on", c.name, rank), c.solver(want[rank]), c.solver(got[rank]))
				}
			}
		}
	}
}

// TestNewProgramMatchesReference: the fresh-start path (geometry, the
// config's initial fields by rows, one InitEquilibrium) builds the solver
// the frozen one did (constructor at rest, fields through Set, a second
// InitEquilibrium), so Decompose and every job start with the same bits.
func TestNewProgramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(179))
	for _, method := range []string{MethodLB, MethodFD} {
		for per := 0; per < 8; per++ {
			par := fluid.DefaultParams()
			par.Rho0 = 1.25
			d2, err := decomp.New2D(3, 2, 24, 18, decomp.Full)
			if err != nil {
				t.Fatal(err)
			}
			d2.PeriodicX, d2.PeriodicY = per&1 != 0, per&2 != 0
			cfg2 := &Config2D{
				Method: method, Par: par, Mask: seamMask2D(rng, 24, 18), D: d2,
				InitRho: func(x, y int) float64 { return 1 + 0.01*float64(x) + 0.001*float64(y) },
				InitVy:  func(x, y int) float64 { return 1e-3 * float64(x-y) },
			}
			d3, err := decomp.New3D(2, 1, 2, 12, 9, 8)
			if err != nil {
				t.Fatal(err)
			}
			d3.PeriodicX, d3.PeriodicY, d3.PeriodicZ = per&1 != 0, per&2 != 0, per&4 != 0
			cfg3 := &Config3D{
				Method: method, Par: par, Mask: seamMask3D(rng, 12, 9, 8), D: d3,
				InitVx: func(x, y, z int) float64 { return 1e-3 * float64(x+y-z) },
				InitVz: func(x, y, z int) float64 { return 1e-3 * float64(z) },
			}
			for rank := 0; rank < d2.P(); rank++ {
				want, err := refNewProgram2D(cfg2, rank)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cfg2.NewProgram(rank)
				if err != nil {
					t.Fatal(err)
				}
				sameSolver(t, fmt.Sprintf("%s 2D periodic=%03b rank %d", method, per, rank), want.M, got.M)
			}
			for rank := 0; rank < d3.P(); rank++ {
				want, err := refNewProgram3D(cfg3, rank)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cfg3.NewProgram(rank)
				if err != nil {
					t.Fatal(err)
				}
				sameSolver(t, fmt.Sprintf("%s 3D periodic=%03b rank %d", method, per, rank), want.M, got.M)
			}
		}
	}
}
