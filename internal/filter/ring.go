package filter

import (
	"sync/atomic"

	"repro/internal/grid"
)

// Ring is the storage of a sweep that updates fields in place, a unit at a
// time (a row of a 2D field, an xy-plane of a 3D one), while every node
// reads old values. A unit's new values read units up to depth away, so
// they wait in a ring of depth+1 slots and go into the fields once the
// unit depth further on is computed. A slab's last depth+1 units are
// never overwritten that way; they go in once every slab is done, so the
// slab above the seam reads old values there. The slab below a seam reads
// the depth units above it, so the slab above holds those back too. With
// one slab there is no seam.
type Ring struct {
	buf               []float64
	fields            []*grid.Layout
	per, depth, units int // units of per rows each; reads reach depth units
	size              int // values of a unit, over all fields

	used    atomic.Int64 // values of buf the sweep's slabs took
	claimed atomic.Int32 // slabs begun
	slabs   []Slab       // in the order begun
}

// RingLen is the buffer a Ring needs to sweep units units of values values
// each (over all fields) at depth depth in at most slabs slabs: a ring per
// slab and the units held back above each seam, never more than the units.
func RingLen(slabs, units, depth, values int) int {
	return min(units, max(1, slabs)*(2*depth+1)-depth) * values
}

// Sweep runs fn over the units of fields, all of one geometry, through
// run, with buf as the ring; fn begins its slab with Ring.Slab and
// computes each unit into Slab.Out. The units held back and each slab's
// last depth+1 go into the fields once run returns.
func (r *Ring) Sweep(buf []float64, fields []*grid.Layout, per, depth int, run RunFunc, fn func(lo, hi int)) {
	r.buf, r.fields, r.per, r.depth = buf, fields, per, depth
	r.units, r.size = fields[0].NY*fields[0].NZ/per, len(fields)*per*fields[0].NX
	if cap(r.slabs) < r.units {
		r.slabs = make([]Slab, 0, r.units)
	}
	r.slabs = r.slabs[:r.units]
	run(r.units, fn)
	for i := range r.claimed.Load() {
		s := &r.slabs[i]
		for u := s.lo; u < s.hi; u++ {
			if u < s.a || u >= s.hi-depth-1 {
				r.put(u, s.slot(u))
			}
		}
		*s = Slab{}
	}
	r.claimed.Store(0)
	r.used.Store(0)
	r.buf, r.fields, r.per, r.depth, r.units, r.size, r.slabs = nil, nil, 0, 0, 0, 0, r.slabs[:0]
}

// Slab is one slab's share of a sweep: units [lo, a) are held back, units
// [a, hi) pass through a ring of slots units.
type Slab struct {
	r                *Ring
	lo, hi, a, slots int
	buf              []float64 // the units held back, then the ring
}

// Slab begins a slab of units [lo, hi) and takes its storage from the
// buffer, or the heap if it is used up: a slab that failed would leave its
// neighbours' units written.
func (r *Ring) Slab(lo, hi int) *Slab {
	s := &r.slabs[r.claimed.Add(1)-1]
	a := lo
	if lo > 0 {
		a = min(hi, lo+r.depth)
	}
	need := (a - lo + min(r.depth+1, hi-a)) * r.size
	off := int(r.used.Add(int64(need))) - need
	buf := r.buf[min(off, len(r.buf)):min(off+need, len(r.buf))]
	if len(buf) < need {
		buf = make([]float64, need)
	}
	*s = Slab{r: r, lo: lo, hi: hi, a: a, slots: min(r.depth+1, hi-a), buf: buf}
	return s
}

// Out returns the storage for unit u's new values, those of field f from
// f*per*nx, a row of nx values after another. Unit u-1 is computed, so no
// later unit reads unit u-1-depth, the one in u's ring slot; it goes into
// the fields first unless it is held back.
func (s *Slab) Out(u int) []float64 {
	out := s.slot(u)
	if v := u - 1 - s.r.depth; v >= s.a {
		s.r.put(v, out)
	}
	return out
}

func (s *Slab) slot(u int) []float64 {
	k := u - s.lo
	if u >= s.a {
		k = s.a - s.lo + (u-s.a)%s.slots
	}
	return s.buf[k*s.r.size:][:s.r.size]
}

// put copies unit u's new values from src into the fields. A unit is a
// row of a 2D field or a plane of a 3D one, whose rows lie SX apart.
func (r *Ring) put(u int, src []float64) {
	for _, l := range r.fields {
		at := l.Origin + u*l.SX
		if l.NZ > 1 {
			at = l.Origin + u*l.SXY
		}
		for range r.per {
			copy(l.Data[at:][:l.NX], src)
			src, at = src[l.NX:], at+l.SX
		}
	}
}
