//go:build goexperiment.synctest

package core

import (
	"testing"
	"testing/synctest"

	"repro/internal/pool"
)

// TestControlPlaneInBubbles runs the control-plane tests each inside a
// testing/synctest bubble. There a goroutine left blocked for good is a
// deadlock panic, not a leak found later, and a WaitTimeout costs no wall
// clock. The shared pool's workers are started first, outside every
// bubble: a bubble's goroutines may not wait on them, so the step runs
// with GOMAXPROCS=1, where a rank's slabs stay on the rank's goroutine.
//
// Three control-plane tests are left out. TestSnapshotKeepsRunning failed
// 1 run in 6 under GOMAXPROCS=1 when this probe was sized.
// TestResize2DBitIdentical and TestResize3DBitIdentical pass in a process
// of their own, but after the tests below they deadlock-panicked 9 runs
// in 10: a resize rebuilds its ranks as slabs of the shared pool, and the
// bubble's goroutine waiting for a slab that a pool worker, outside the
// bubble, has not yet run counts as blocked for good. The fix is to run
// every slab on its caller's goroutine (ROADMAP 24); then all eleven
// should run, at the default GOMAXPROCS too.
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
		{"ReplacedWorkersLeakNothing", TestReplacedWorkersLeakNothing},
	} {
		t.Run(c.name, func(t *testing.T) {
			synctest.Run(func() { c.test(t) })
		})
	}
}
