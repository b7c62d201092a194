package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/dump"
)

// Resize re-decomposes a running job onto a new lattice of subregions at a
// step boundary: every process synchronizes and dumps (the section-5.1
// suspend protocol), each rank of the new shape's split has its state cut
// straight from the dumps of the old ranks that hold its nodes, and one
// fresh worker per new rank restarts at the same step. It is the
// malleable-job extension of migration — migration moves ranks between
// hosts, Resize changes how many ranks there are.
//
// The job keeps the ranks a resize replaced, one shape's worth, until it
// finishes: a resize back onto exactly their boxes cuts the state into
// them instead of allocating and zeroing every rank's storage anew.
//
// The continued computation is bitwise identical to an uninterrupted run,
// under one precondition enforced here: the fourth-order filter must be off
// (Par.Eps == 0). The filter's applicability test is seam-dependent — it
// consults neighbouring subregion geometry — so changing the decomposition
// would change which nodes get filtered and the results would (correctly)
// diverge. Everything else in both methods depends only on global node
// coordinates, so a re-split reproduces the exact global state: interiors
// are authoritative at a step boundary, and each new rank's ghost layers
// are filled with its new neighbours' edge values — exactly the state the
// last halo exchange would have produced.
//
// A face of the global grid need not be periodic or walled for this to
// hold. What is pinned (TestOpenFacesSurviveDumps): a channel whose x faces
// are open, resized 2x2 -> 3x2 with its dump at step 12, or suspended and
// resumed with its dump at step 13, ends in the serial run's bits, for both
// methods in 2D and in 3D. Other open-face geometries are not pinned.
//
// The shape must cover the job's global grid (spans summing to GX/GY[/GZ]);
// the rank count after the resize is len(sh.X)*len(sh.Y)[*len(sh.Z)].
// Decompositions with deactivated subregions are not resizable: the re-split
// activates every subregion, which would change the gathered solution in
// the wall regions.
//
// A refused resize — bad shape, filter on, dumps that fail validation —
// changes nothing: the re-split validates everything before it builds
// anything and commits the new decomposition last, so the job is resumed
// from the suspended states at its old width and the error is returned.
func (j *Job) Resize(sh decomp.Shape) error {
	states, err := j.Suspend()
	if err != nil {
		return fmt.Errorf("core: resize: %w", err)
	}
	newStates, err := j.resplit(states, sh)
	if err != nil {
		// The re-split commits last, so nothing has changed; put the job
		// back the way it was and the caller still holds a consistent run.
		if rerr := j.Resume(states); rerr != nil {
			return fmt.Errorf("core: resize: %w (and resume after failure: %v)", err, rerr)
		}
		return fmt.Errorf("core: resize: %w", err)
	}

	if err := j.restart(newStates); err != nil {
		return fmt.Errorf("core: resize: %w", err)
	}
	return nil
}

// resplit is the re-split program of either dimension: old-shape dumps
// in, one Program per new rank out, holding the state of the same step,
// with its dump as views of its own arrays (recut, which reuses the
// retired Programs when the new lattice is the one they held). The next
// decomposition keeps the stencil, the periodic axes and the dimension of
// the old one.
// On success, and only then, the config's decomposition is replaced in
// place, so the job's Rebuild closure and the caller's gather path follow
// the new lattice.
func resplit[P built](cfg setup[P], states []*dump.State, sh decomp.Shape, retired []P) ([]P, []*dump.State, error) {
	d := cfg.decomposition()
	if d.P() != d.Total() {
		return nil, nil, fmt.Errorf("resize of a decomposition with %d of %d subregions deactivated",
			d.Total()-d.P(), d.Total())
	}
	newD, err := decomp.NewShaped(sh, d.Stencil)
	if err != nil {
		return nil, nil, err
	}
	if newD.Planar() != d.Planar() {
		return nil, nil, fmt.Errorf("shape with %d z spans for the decomposition %v", len(sh.Z), d)
	}
	newD.PeriodicX, newD.PeriodicY, newD.PeriodicZ = d.PeriodicX, d.PeriodicY, d.PeriodicZ
	progs, out, err := recut(cfg, cfg.over(newD), states, retired)
	if err != nil {
		return nil, nil, err
	}
	*d = *newD
	return progs, out, nil
}
