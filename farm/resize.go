package farm

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
)

// Sentinel errors of the resize path; callers branch with errors.Is.
var (
	// ErrUnknownJob flags a resize request for an ID the farm never
	// accepted.
	ErrUnknownJob = errors.New("unknown job")
	// ErrNotRunning flags a resize request for a job the farm knows but
	// is not currently running (pending, queued, suspended or finished):
	// only a placed job has a reservation to grow or shrink.
	ErrNotRunning = errors.New("job is not running")
)

// resizeByID locates a running job by ID and resizes it; jobs the farm
// knows but is not running get ErrNotRunning, strangers ErrUnknownJob.
func (f *Farm) resizeByID(id string, n int, t time.Duration) error {
	for _, js := range f.running {
		if js.spec.ID == id {
			return f.resize(js, n, t)
		}
	}
	if _, known := f.Job(id); known {
		return fmt.Errorf("farm: resize %s: %w", id, ErrNotRunning)
	}
	return fmt.Errorf("farm: resize %q: %w", id, ErrUnknownJob)
}

// resize re-decomposes a running job onto n ranks at the current virtual
// time: the progress made at the old pace is credited, a near-square
// lattice of n subregions is chosen within the job's (pinned) global
// grid, the reservation grows (fresh Reserve) or shrinks (tail hosts
// released), the workload re-splits through the core resize protocol,
// and the job is repriced on the new placement. Resizing to the current
// rank count is a no-op. Failures leave the job running on its old
// decomposition and reservation: a grow that cannot reserve or re-split
// releases the extra hosts; a shrink re-splits before any host is
// released, so its failure changes nothing.
func (f *Farm) resize(js *jobState, n int, t time.Duration) error {
	cur := js.ranks()
	if n == cur {
		return nil
	}
	if n < 1 {
		return fmt.Errorf("farm: resize %s to %d ranks", js.spec.ID, n)
	}
	if n > len(f.cluster.Hosts) {
		return fmt.Errorf("farm: resize %s to %d ranks on a %d-host pool: %w",
			js.spec.ID, n, len(f.cluster.Hosts), ErrNoCapacity)
	}
	espec := js.espec()
	jx, jy, jz, err := chooseLattice(n, espec)
	if err != nil {
		return fmt.Errorf("farm: resize %s: %w", js.spec.ID, err)
	}
	next := espec
	next.GX, next.GY, next.GZ = espec.Grid()
	next.JX, next.JY, next.JZ = jx, jy, jz

	// The run so far went at the old placement's pace; credit it and
	// re-anchor before anything can fail, so the accounting never
	// double-counts whatever happens next. Success or failure, the
	// finish estimate is re-derived from the new anchor.
	f.settle(js, t)
	err = f.regrid(js, next, n)
	js.retime(t)
	if err != nil {
		return fmt.Errorf("farm: resize %s %d->%d: %w", js.spec.ID, cur, n, err)
	}
	js.CurJX, js.CurJY, js.CurJZ = jx, jy, jz
	js.Resizes++
	js.Repricings++
	f.emit(JobResized{T: t, ID: js.spec.ID, From: cur, To: n,
		Hosts: hostNames(js.res.Hosts), StepSec: js.StepSec, Finish: js.FinishAt})
	return nil
}

// regrid moves a running job's reservation and workload onto n ranks
// of the next lattice; on failure the reservation is as it was.
func (f *Farm) regrid(js *jobState, next JobSpec, n int) error {
	cur := js.ranks()
	if n < cur {
		// Re-split onto the leading n hosts first — the workload refusing
		// (filter on, deactivated subregions) must leave the reservation
		// whole — then release the tail.
		hosts := js.res.Hosts[:n:n]
		if err := f.applyResize(js, next, hosts); err != nil {
			return err
		}
		js.res.Shrink(append([]*cluster.Host(nil), js.res.Hosts[n:]...))
		js.res.Hosts = hosts
		js.ShrinkRanks += cur - n
		return nil
	}
	add, err := f.cluster.Reserve(js.spec.ID, n-cur, f.selection, f.rng)
	if err != nil {
		return fmt.Errorf("%w (%w)", ErrNoCapacity, err)
	}
	// Reserve numbered the extras from rank 0; re-number the merged
	// placement so hosts[rank] serves rank. The old hosts keep their
	// ranks (they lead the list), so a failed re-split needs no
	// un-renumbering — releasing the extras restores the placement.
	hosts := append(append([]*cluster.Host(nil), js.res.Hosts...), add.Hosts...)
	for rank, h := range hosts {
		h.AssignTo(js.spec.ID, rank)
	}
	if err := f.applyResize(js, next, hosts); err != nil {
		add.Release()
		return err
	}
	js.res.Hosts = hosts
	js.GrowRanks += n - cur
	return nil
}

// applyResize picks the new lattice's shape on the target hosts, drives
// the workload's re-split, and commits the job's shape, price and
// imbalance. It mutates nothing on failure.
func (f *Farm) applyResize(js *jobState, next JobSpec, hosts []*cluster.Host) error {
	shape, sec, err := f.chooseShape(next, hosts)
	if err != nil {
		return err
	}
	resolved, err := shapeOrUniform(next, shape)
	if err != nil {
		return err
	}
	imb, err := Imbalance(next, shape, hosts)
	if err != nil {
		return err
	}
	if err := js.work.Resize(resolved, hosts); err != nil {
		return err
	}
	js.shape = shape
	js.StepSec = sec
	js.Imbalance = imb
	return nil
}

// chooseLattice factors n into a decomposition lattice for the spec's
// problem: near-square (near-cubic for 3D specs), deterministically —
// the largest factor <= the root first, longer factor along the longer
// grid axis — and bounded by the grid extents so every subregion keeps
// at least one node. It fails when no factorization of n fits the grid
// (n prime and longer than both axes, say).
func chooseLattice(n int, spec JobSpec) (jx, jy, jz int, err error) {
	// A 2D grid has gz = 0: its one layer takes c = 1 and is recorded
	// as JZ = 0.
	gx, gy, gz := spec.Grid()
	for c := rootFloor(n, 3); c >= 1; c-- {
		if n%c != 0 || c > max(gz, 1) {
			continue
		}
		if x, y, ok := lattice2D(n/c, gx, gy); ok {
			return x, y, min(c, gz), nil
		}
	}
	return 0, 0, 0, fmt.Errorf("no %d-rank lattice fits grid %dx%dx%d", n, gx, gy, gz)
}

// lattice2D picks the most nearly square factorization jx*jy = n that
// fits the gx x gy grid, preferring the longer factor along the longer
// axis (ties go to x, matching row-major rank order).
func lattice2D(n, gx, gy int) (jx, jy int, ok bool) {
	for a := rootFloor(n, 2); a >= 1; a-- {
		if n%a != 0 {
			continue
		}
		b := n / a // b >= a
		x, y := b, a
		if gy > gx {
			x, y = a, b
		}
		if x <= gx && y <= gy {
			return x, y, true
		}
		if y <= gx && x <= gy {
			return y, x, true
		}
	}
	return 0, 0, false
}

// rootFloor returns floor(n^(1/k)) exactly, correcting the float round.
func rootFloor(n, k int) int {
	if n < 1 {
		return 0
	}
	pow := func(r int) int {
		p := 1
		for i := 0; i < k; i++ {
			p *= r
		}
		return p
	}
	r := int(math.Round(math.Pow(float64(n), 1/float64(k))))
	for r > 1 && pow(r) > n {
		r--
	}
	for pow(r+1) <= n {
		r++
	}
	return r
}
