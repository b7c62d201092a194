package farm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/farm"
	"repro/internal/cluster"
)

// oneSecondTimer prices every step at one virtual second, so resize
// timelines are independent of host speeds and rank counts.
func oneSecondTimer(farm.JobSpec, farm.Shape, []*farm.Host) (float64, error) {
	return 1, nil
}

// TestWithAutoscalerValidation: the autoscaler option is validated at
// construction like WithScenario — an interval that would never tick,
// or a tick with no callback, is refused with ErrInvalidSpec.
func TestWithAutoscalerValidation(t *testing.T) {
	noop := func(time.Duration, farm.AutoscaleControl) {}
	cases := []struct {
		name string
		opt  farm.Option
	}{
		{"zero-interval", farm.WithAutoscaler(0, noop)},
		{"negative-interval", farm.WithAutoscaler(-time.Second, noop)},
		{"nil-callback", farm.WithAutoscaler(time.Second, nil)},
	}
	for _, tc := range cases {
		if _, err := farm.New(quietPool(), tc.opt); !errors.Is(err, farm.ErrInvalidSpec) {
			t.Errorf("%s: New returned %v, want ErrInvalidSpec", tc.name, err)
		}
	}
	if _, err := farm.New(quietPool(), farm.WithAutoscaler(time.Second, noop)); err != nil {
		t.Errorf("valid autoscaler refused: %v", err)
	}
}

// TestJobResizeLifecycle drives Job.Resize through the public API from
// a separate goroutine — the supported pattern — covering the success
// path, the no-op, the typed refusals, and the post-completion and
// post-run answers. The scenario hook releases one request per tick and
// briefly holds the event loop, so each request is enqueued while the
// job is deterministically in the state the assertion wants.
func TestJobResizeLifecycle(t *testing.T) {
	const requests = 6
	start := make([]chan struct{}, requests)
	for i := range start {
		start[i] = make(chan struct{})
	}
	step := 0
	hook := func(tt time.Duration, _ *cluster.Cluster) {
		due := step < requests-1 && tt >= time.Duration(step+1)*5*time.Second ||
			step == requests-1 && tt > 600*time.Second // after demo finishes
		if due {
			close(start[step])
			step++
			// Give the released request time to reach the farm's queue
			// before the loop moves on; it is answered next iteration.
			time.Sleep(20 * time.Millisecond)
		}
	}
	f := mustNew(t, quietPool(),
		farm.WithSeed(5),
		farm.WithTimer(oneSecondTimer),
		farm.WithScenario(5*time.Second, hook))
	job, err := f.Submit(farm.JobSpec{
		ID: "demo", Method: "lb2d", JX: 2, JY: 2, Side: 10, Steps: 600,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A second, longer job keeps the event loop alive after demo
	// finishes, so the post-completion request gets a real answer.
	if _, err := f.Submit(farm.JobSpec{
		ID: "tail", Method: "lb2d", JX: 1, JY: 1, Side: 10, Steps: 1200,
	}, nil); err != nil {
		t.Fatal(err)
	}
	f.Drain()

	res := make(chan []error, 1)
	go func() {
		var errs []error
		for i, n := range []int{6, 6, 0, 26, 4} {
			// grow 4->6; already 6: no-op; nonsense width; wider than
			// the pool; shrink back 6->4.
			<-start[i]
			errs = append(errs, job.Resize(nil, n))
		}
		<-job.Done()
		<-start[requests-1]
		errs = append(errs, job.Resize(nil, 6)) // finished: not running
		res <- errs
	}()

	sum, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	errs := <-res
	if errs[0] != nil {
		t.Errorf("grow: %v", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("same-size no-op: %v", errs[1])
	}
	if errs[2] == nil {
		t.Error("resize to 0 ranks succeeded")
	}
	if !errors.Is(errs[3], farm.ErrNoCapacity) {
		t.Errorf("resize past the pool: %v, want ErrNoCapacity", errs[3])
	}
	if errs[4] != nil {
		t.Errorf("shrink: %v", errs[4])
	}
	if !errors.Is(errs[5], farm.ErrNotRunning) {
		t.Errorf("resize after finish: %v, want ErrNotRunning", errs[5])
	}

	rec, ok := job.Metrics()
	if !ok {
		t.Fatal("demo has no final metrics")
	}
	if rec.Resizes != 2 || rec.GrowRanks != 2 || rec.ShrinkRanks != 2 || rec.Ranks != 4 {
		t.Errorf("resizes=%d grow=%d shrink=%d ranks=%d, want 2/2/2/4",
			rec.Resizes, rec.GrowRanks, rec.ShrinkRanks, rec.Ranks)
	}
	if sum.Resizes != 2 {
		t.Errorf("summary resizes = %d, want 2", sum.Resizes)
	}

	// The run has drained: a late request is answered by the generation
	// check, not left hanging.
	if err := job.Resize(nil, 8); !errors.Is(err, farm.ErrStopped) {
		t.Errorf("resize after Run returned: %v, want ErrStopped", err)
	}
}

// TestJobResizeContextCanceled: a request against a farm whose loop is
// not serving unblocks on the caller's context.
func TestJobResizeContextCanceled(t *testing.T) {
	f := mustNew(t, quietPool())
	job, err := f.Submit(farm.JobSpec{
		ID: "idle", Method: "lb2d", JX: 2, JY: 2, Side: 10, Steps: 100,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := job.Resize(ctx, 6); !errors.Is(err, context.Canceled) {
		t.Errorf("resize with canceled context: %v, want context.Canceled", err)
	}
}
