package farm

import (
	"repro/internal/cluster"
	"repro/internal/decomp"
	"repro/internal/metrics"
)

// Cluster is the virtual workstation pool a farm schedules onto, and
// Host one of its machines; NewPaperCluster builds the paper's 25-host
// HP9000/700 pool, so the common path — build a pool, run a farm —
// needs no internal import. Scenario callbacks receive the *Cluster to
// script user activity (Reclaim, UserGone) against it.
type (
	Cluster = cluster.Cluster
	Host    = cluster.Host
)

// NewPaperCluster builds the paper's 25-workstation pool (16x 715/50,
// 4x 720, 5x 710) with its calibrated speed table and activity model.
func NewPaperCluster() *Cluster { return cluster.NewPaperCluster() }

// Summary aggregates a finished farm run; JobMetrics is one job's
// lifecycle record within it.
type (
	Summary    = metrics.Summary
	JobMetrics = metrics.Job
)

// Shape is a decomposition's per-axis span assignment — the zero value
// means uniform splitting. StepTimer implementations receive the shape
// being priced; WeightedShape builds them.
type Shape = decomp.Shape
