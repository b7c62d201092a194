//go:build goexperiment.synctest

package core

import (
	"testing"
	"testing/synctest"

	"repro/internal/pool"
)

// TestControlPlaneInBubbles runs the eleven control-plane tests each
// inside a testing/synctest bubble. There a goroutine left blocked for
// good is a deadlock panic, not a leak found later, and a wait timeout
// costs no wall clock.
//
// A bubble's goroutines may not wait on goroutines outside it. The
// control plane starts none it does not join: every rank runs on a
// goroutine of its own, and a rebuild restores its ranks on goroutines
// it waits for. The solvers' step slabs still go to the shared pool,
// whose workers are started first, outside every bubble; a rank whose
// worker budget is above 1 would wait on them. With GOMAXPROCS=1 every
// budget is 1 and the slabs stay on the rank's goroutine, so the step
// that runs this file sets it.
//
// Run it with GOEXPERIMENT=synctest GOMAXPROCS=1 go test -run Bubbles ./internal/core.
func TestControlPlaneInBubbles(t *testing.T) {
	var r pool.Runner
	r.Run(2, 2, func(lo, hi int) {})
	for _, c := range []struct {
		name string
		test func(*testing.T)
	}{
		{"SilentRanksFailTyped", TestSilentRanksFailTyped},
		{"MigrationPreservesSolution", TestMigrationPreservesSolution},
		{"Migration3D", TestMigration3D},
		{"ReorderedDeliveryIsInvisible", TestReorderedDeliveryIsInvisible},
		{"SyncDirReusedByASecondJob", TestSyncDirReusedByASecondJob},
		{"SimultaneousMigration", TestSimultaneousMigration},
		{"SuspendResumePreservesSolution", TestSuspendResumePreservesSolution},
		{"SnapshotKeepsRunning", TestSnapshotKeepsRunning},
		{"Resize2DBitIdentical", TestResize2DBitIdentical},
		{"Resize3DBitIdentical", TestResize3DBitIdentical},
		{"ReplacedWorkersLeakNothing", TestReplacedWorkersLeakNothing},
	} {
		t.Run(c.name, func(t *testing.T) {
			synctest.Run(func() { c.test(t) })
		})
	}
}
