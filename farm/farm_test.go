package farm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/farm"
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/dump"
)

func quietPool() *cluster.Cluster {
	c := cluster.NewPaperCluster()
	c.Advance(30 * time.Minute)
	return c
}

// mustNew builds a farm from options the test knows are valid.
func mustNew(t testing.TB, c *cluster.Cluster, opts ...farm.Option) *farm.Farm {
	t.Helper()
	f, err := farm.New(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestNewRejectsInvalidOptions: misconfigured options are refused at
// construction with ErrInvalidSpec — notably a scenario interval that
// is not positive, which the event loop would otherwise arm and never
// fire (the old silent behavior).
func TestNewRejectsInvalidOptions(t *testing.T) {
	noop := func(time.Duration, *cluster.Cluster) {}
	cases := []struct {
		name string
		opts []farm.Option
	}{
		{"scenario-zero-interval", []farm.Option{farm.WithScenario(0, noop)}},
		{"scenario-negative-interval", []farm.Option{farm.WithScenario(-time.Minute, noop)}},
		{"scenario-nil-callback", []farm.Option{farm.WithScenario(time.Minute, nil)}},
		{"checkpoint-negative-interval", []farm.Option{farm.WithCheckpoint(t.TempDir(), -time.Second, 0)}},
		{"checkpoint-interval-without-dir", []farm.Option{farm.WithCheckpoint("", time.Minute, 0)}},
	}
	for _, tc := range cases {
		if _, err := farm.New(quietPool(), tc.opts...); !errors.Is(err, farm.ErrInvalidSpec) {
			t.Errorf("%s: New returned %v, want ErrInvalidSpec", tc.name, err)
		}
	}
	// Restore applies the same option validation before touching disk.
	if _, err := farm.Restore(t.TempDir(), quietPool(), nil, farm.WithScenario(0, noop)); !errors.Is(err, farm.ErrInvalidSpec) {
		t.Errorf("Restore with zero scenario interval: %v, want ErrInvalidSpec", err)
	}
}

// stormMix is the reclaim-storm workload of the experiments: a 20-rank
// head behind a stream of 8-rank jobs.
func stormMix() []farm.JobSpec {
	specs := []farm.JobSpec{
		{ID: "head-wide", Method: "lb2d", JX: 5, JY: 4, Side: 40, Steps: 6000,
			Submit: 2 * time.Minute},
	}
	for k := 0; k < 8; k++ {
		specs = append(specs, farm.JobSpec{
			ID:     fmt.Sprintf("small-%d", k),
			Method: "lb2d", JX: 4, JY: 2, Side: 40, Steps: 15000,
			Submit: time.Duration(k) * 5 * time.Minute,
		})
	}
	return specs
}

// storm scripts deterministic user activity from the observable cluster
// state only, so the same function can be re-attached to a restored
// farm.
func storm(t time.Duration, c *cluster.Cluster) {
	switch {
	case t > 0 && t%(10*time.Minute) == 0:
		for _, h := range c.Hosts {
			if h.Assigned() >= 0 && !h.Reclaimed() {
				c.Reclaim(h)
				return
			}
		}
	case t > 5*time.Minute && t%(10*time.Minute) == 5*time.Minute:
		for _, h := range c.Hosts {
			if h.Reclaimed() && h.Jobs() > 0 {
				c.UserGone(h)
				return
			}
		}
	}
}

// collectTrace runs the storm workload under the farm API and returns
// the event trace (one String per event) plus the summary.
func collectTrace(t *testing.T, opts ...farm.Option) ([]string, farm.Summary) {
	t.Helper()
	opts = append([]farm.Option{
		farm.WithSeed(1),
		farm.WithScenario(time.Minute, storm),
	}, opts...)
	f := mustNew(t, quietPool(), opts...)
	sub := f.SubscribeBuffered(1 << 14)
	for _, sp := range stormMix() {
		if _, err := f.Submit(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	sum, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("trace subscriber dropped %d events; grow the buffer", sub.Dropped())
	}
	var trace []string
	for ev := range sub.Events() {
		trace = append(trace, ev.String())
	}
	return trace, sum
}

// TestEventTraceDeterministic: two runs of the same trace with the same
// seed produce byte-identical event streams.
func TestEventTraceDeterministic(t *testing.T) {
	a, sumA := collectTrace(t)
	b, sumB := collectTrace(t)
	if len(a) == 0 {
		t.Fatal("no events emitted")
	}
	if ta, tb := strings.Join(a, "\n"), strings.Join(b, "\n"); ta != tb {
		t.Errorf("event traces differ between identical runs:\n--- run A ---\n%s\n--- run B ---\n%s", ta, tb)
	}
	if !reflect.DeepEqual(sumA, sumB) {
		t.Error("summaries differ between identical runs")
	}
	// The stream covers the round's decision points: admissions,
	// placements, completions, reclaims and migrations all appear for
	// this workload.
	kinds := map[string]bool{}
	for _, line := range a {
		for _, k := range []string{" queued ", " placed ", " finished ", " reclaimed ", " migrated "} {
			if strings.Contains(line, k) {
				kinds[k] = true
			}
		}
	}
	if len(kinds) != 5 {
		t.Errorf("storm trace misses decision points: got %v", kinds)
	}
}

// TestEventTraceAcrossRestore: the concatenation of a crashed farm's
// events and its restored continuation is byte-identical to the
// uninterrupted stream — a restored farm emits exactly the events the
// dead coordinator had not yet emitted.
func TestEventTraceAcrossRestore(t *testing.T) {
	const crashAt = 12 * time.Minute

	// Reference: uninterrupted, but saving every crashAt, so the
	// CheckpointSaved events appear in both streams: the doomed run's
	// cancel saves at crashAt, and the restored farm saves on the same
	// grid after it.
	refTraceRun := func() []string {
		ref := mustNew(t, quietPool(),
			farm.WithSeed(1),
			farm.WithCheckpoint(t.TempDir(), crashAt, 0),
			farm.WithScenario(time.Minute, storm))
		sub := ref.SubscribeBuffered(1 << 14)
		for _, sp := range stormMix() {
			if _, err := ref.Submit(sp, nil); err != nil {
				t.Fatal(err)
			}
		}
		ref.Drain()
		if _, err := ref.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var trace []string
		for ev := range sub.Events() {
			trace = append(trace, ev.String())
		}
		return trace
	}
	want := refTraceRun()

	// The doomed run: canceled at crashAt, which saves, then dies.
	dir := t.TempDir()
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	doomed := mustNew(t, quietPool(),
		farm.WithSeed(1),
		farm.WithCheckpoint(dir, 0, 0),
		farm.WithScenario(time.Minute, func(tt time.Duration, c *cluster.Cluster) {
			storm(tt, c)
			if tt >= crashAt {
				crash()
			}
		}))
	subA := doomed.SubscribeBuffered(1 << 14)
	for _, sp := range stormMix() {
		if _, err := doomed.Submit(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	doomed.Drain()
	if _, err := doomed.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("doomed run: %v, want context.Canceled", err)
	}
	// Run's return ended the stream; the buffered events stay readable
	// and the range ends.
	var got []string
	for ev := range subA.Events() {
		got = append(got, ev.String())
	}

	// The restored continuation re-attaches a fresh subscriber.
	restored, err := farm.Restore(dir, cluster.NewPaperCluster(), nil,
		farm.WithCheckpoint(t.TempDir(), crashAt, 0),
		farm.WithScenario(time.Minute, storm))
	if err != nil {
		t.Fatal(err)
	}
	subB := restored.SubscribeBuffered(1 << 14)
	if _, err := restored.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for ev := range subB.Events() {
		got = append(got, ev.String())
	}

	if wantS, gotS := strings.Join(want, "\n"), strings.Join(got, "\n"); wantS != gotS {
		t.Errorf("crash+restore event stream differs from the uninterrupted one:\n--- uninterrupted ---\n%s\n--- crashed+restored ---\n%s", wantS, gotS)
	}
}

// TestSubscriptionChurnDuringRun: subscriptions opened and closed from
// other goroutines while the round emits neither race with the fan-out
// nor cost a steady subscriber an event: its stream is the one an
// undisturbed run records. Run it under -race.
func TestSubscriptionChurnDuringRun(t *testing.T) {
	want, _ := collectTrace(t)
	f := mustNew(t, quietPool(), farm.WithSeed(1), farm.WithScenario(time.Minute, storm))
	steady := f.SubscribeBuffered(1 << 14)
	for _, sp := range stormMix() {
		if _, err := f.Submit(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.SubscribeBuffered(4).Close()
			}
		}()
	}
	_, err := f.Run(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for ev := range steady.Events() {
		got = append(got, ev.String())
	}
	if steady.Dropped() != 0 || !slices.Equal(got, want) {
		t.Errorf("with subscriptions churning, the steady subscriber saw %d events (%d dropped), want the %d of an undisturbed run",
			len(got), steady.Dropped(), len(want))
	}
}

// TestSlowSubscriberDoesNotStall: a subscriber that never drains cannot
// block the scheduling round — overflow events are dropped and counted,
// and the buffered prefix stays readable.
func TestSlowSubscriberDoesNotStall(t *testing.T) {
	f := mustNew(t, quietPool(), farm.WithSeed(1),
		farm.WithScenario(time.Minute, storm))
	sub := f.SubscribeBuffered(2)
	for _, sp := range stormMix() {
		if _, err := f.Submit(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := f.Run(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run stalled behind an undrained subscriber")
	}
	if sub.Dropped() == 0 {
		t.Error("expected overflow drops on a 2-slot buffer")
	}
	var kept []farm.Event
	for ev := range sub.Events() {
		kept = append(kept, ev)
	}
	if len(kept) != 2 {
		t.Errorf("kept %d buffered events, want exactly the 2 oldest", len(kept))
	}
}

// TestSubmitTypedErrors: the public surface exposes the sentinel
// rejections for errors.Is branching.
func TestSubmitTypedErrors(t *testing.T) {
	f := mustNew(t, quietPool())
	ok := farm.JobSpec{ID: "x", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1}
	if _, err := f.Submit(ok, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(ok, nil); !errors.Is(err, farm.ErrDuplicateID) {
		t.Errorf("duplicate: %v, want ErrDuplicateID", err)
	}
	if _, err := f.Submit(farm.JobSpec{ID: "bad"}, nil); !errors.Is(err, farm.ErrInvalidSpec) {
		t.Errorf("invalid: %v, want ErrInvalidSpec", err)
	}
	if _, err := f.Submit(farm.JobSpec{ID: "huge", Method: "lb2d", JX: 6, JY: 5, Side: 4, Steps: 1}, nil); !errors.Is(err, farm.ErrNoCapacity) {
		t.Errorf("oversized: %v, want ErrNoCapacity", err)
	}
	f.Drain()
	if _, err := f.Submit(farm.JobSpec{ID: "late", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1}, nil); !errors.Is(err, farm.ErrClosed) {
		t.Errorf("after Drain: %v, want ErrClosed", err)
	}
	// A rejected ID is not burned: the huge job's slot is reusable on a
	// pool that fits it (fresh farm, since this one is drained).
	f2 := mustNew(t, quietPool())
	if _, err := f2.Submit(farm.JobSpec{ID: "huge", Method: "lb2d", JX: 5, JY: 5, Side: 4, Steps: 1}, nil); err != nil {
		t.Errorf("25-rank job on the 25-host pool rejected: %v", err)
	}
}

// TestTimerPriceChecked: a step timer's price that is not finite and
// positive fails Run with an error naming the job and the price, instead
// of finishing the job at a meaningless virtual time.
func TestTimerPriceChecked(t *testing.T) {
	for _, price := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		timer := func(farm.JobSpec, farm.Shape, []*farm.Host) (float64, error) { return price, nil }
		f := mustNew(t, quietPool(), farm.WithTimer(timer))
		if _, err := f.Submit(farm.JobSpec{ID: "priced", Method: "lb2d", JX: 2, JY: 2, Side: 10, Steps: 100}, nil); err != nil {
			t.Fatal(err)
		}
		f.Drain()
		sum, err := f.Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), "priced") || !strings.Contains(err.Error(), fmt.Sprint(price)) {
			t.Errorf("price %v: Run returned %v (%d jobs done), want an error naming the job and the price",
				price, err, len(sum.Jobs))
		}
	}
}

// TestJobHandleLifecycle: the handle tracks status through the farm,
// Wait unblocks on completion, and Metrics carries the final record.
func TestJobHandleLifecycle(t *testing.T) {
	f := mustNew(t, quietPool(), farm.WithSeed(1))
	j, err := f.Submit(farm.JobSpec{
		ID: "solo", Method: "lb2d", JX: 2, JY: 2, Side: 40, Steps: 100,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status() != farm.StatusPending {
		t.Fatalf("fresh handle: status %v", j.Status())
	}
	if _, ok := j.Metrics(); ok {
		t.Error("metrics available before the job ran")
	}
	f.Drain()
	go func() {
		if _, err := f.Run(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.Status() != farm.StatusFinished {
		t.Errorf("status after Wait = %v, want finished", j.Status())
	}
	rec, ok := j.Metrics()
	if !ok || rec.ID != "solo" || rec.Ranks != 4 {
		t.Errorf("metrics after Wait: %+v ok=%v", rec, ok)
	}
	// A second Wait returns immediately; a canceled context wins over a
	// never-finishing wait.
	if err := j.Wait(ctx); err != nil {
		t.Errorf("second Wait: %v", err)
	}
	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	f2 := mustNew(t, quietPool())
	jj, err := f2.Submit(farm.JobSpec{ID: "later", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jj.Wait(canceled); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait with canceled ctx: %v", err)
	}
}

// TestWaitAfterCanceledRun: when Run returns without finishing a job,
// Wait reports ErrStopped (wrapping the run's error) instead of hanging
// — including a Wait that started before Run was ever called.
func TestWaitAfterCanceledRun(t *testing.T) {
	f := mustNew(t, quietPool())
	j, err := f.Submit(farm.JobSpec{ID: "orphan", Method: "lb2d", JX: 2, JY: 2, Side: 40, Steps: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A waiter that begins before Run must still observe the run ending.
	earlyErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		earlyErr <- j.Wait(ctx)
	}()
	canceled, cancelRun := context.WithCancel(context.Background())
	cancelRun()
	if _, err := f.Run(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = j.Wait(ctx)
	if !errors.Is(err, farm.ErrStopped) || !errors.Is(err, context.Canceled) {
		t.Errorf("Wait after canceled run: %v, want ErrStopped wrapping context.Canceled", err)
	}
	if err := <-earlyErr; !errors.Is(err, farm.ErrStopped) {
		t.Errorf("Wait started before Run: %v, want ErrStopped (not a context timeout)", err)
	}
	if _, ok := f.Job("orphan"); !ok {
		t.Error("handle lookup lost the job")
	}
}

// TestRunContextCancelCheckpoints: cancelling Run's context persists
// the farm (checkpoint directory configured) before interrupting, and
// the restored continuation finishes bit-identically to a run that was
// never cancelled.
func TestRunContextCancelCheckpoints(t *testing.T) {
	newStorm := func(dir string) *farm.Farm {
		f := mustNew(t, quietPool(),
			farm.WithSeed(1),
			farm.WithCheckpoint(dir, 0, 0), // cancellation saves only
			farm.WithScenario(time.Minute, storm))
		for _, sp := range stormMix() {
			if _, err := f.Submit(sp, nil); err != nil {
				t.Fatal(err)
			}
		}
		f.Drain()
		return f
	}

	// Reference: the same farm, never cancelled. The checkpoint dir is
	// configured but no periodic save fires, so the trace is untouched.
	want, err := newStorm(t.TempDir()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	f := newStorm(dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the run checkpoints and stops at its first check
	_, err = f.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run: %v, want context.Canceled", err)
	}

	restored, err := farm.Restore(dir, cluster.NewPaperCluster(), nil,
		farm.WithScenario(time.Minute, storm))
	if err != nil {
		t.Fatalf("restore from the cancellation checkpoint: %v", err)
	}
	got, err := restored.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored-after-cancel summary differs from the uninterrupted run\nwant:\n%v\ngot:\n%v", want, got)
	}

	// A manifest written while a farm still took submissions during Run
	// may mark a pending job "Live". The key is retired: such a
	// checkpoint still loads, and the run restored from it is the same.
	data, err := os.ReadFile(ckpt.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(data, []byte(`"Phase": "pending",`), []byte(`"Phase": "pending", "Live": true,`), 1)
	if bytes.Equal(legacy, data) {
		t.Fatal("the cancellation checkpoint holds no pending job")
	}
	if err := os.WriteFile(ckpt.ManifestPath(dir), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err = farm.Restore(dir, cluster.NewPaperCluster(), nil,
		farm.WithScenario(time.Minute, storm))
	if err != nil {
		t.Fatalf("restore from a manifest with a Live job: %v", err)
	}
	if got, err = restored.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored from a manifest with a Live job, the summary differs from the uninterrupted run\nwant:\n%v\ngot:\n%v", want, got)
	}
}

// TestRunCancelInScenarioSavesThere: a cancel called from a scenario
// callback stops the run at the check that follows the callback, so the
// cancellation checkpoint is taken at that tick's virtual time on every
// run, whatever the goroutine scheduler does.
func TestRunCancelInScenarioSavesThere(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := mustNew(t, quietPool(),
		farm.WithSeed(1),
		farm.WithCheckpoint(dir, 0, 0), // cancellation saves only
		farm.WithScenario(time.Minute, func(tt time.Duration, c *cluster.Cluster) {
			storm(tt, c)
			if tt == 5*time.Minute {
				cancel()
			}
		}))
	for _, sp := range stormMix() {
		if _, err := f.Submit(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	if _, err := f.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run: %v, want context.Canceled", err)
	}
	m, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.SavedAt != 5*time.Minute {
		t.Errorf("cancellation checkpoint at %v, want 5m, the tick that canceled", m.SavedAt)
	}
}

// TestRunCancelOnSaveTickSavesOnce: a scenario that cancels at the
// instant of an interval save stops the run at the check after the
// callback, before the interval save runs, so exactly one checkpoint is
// saved at that instant. Without that check the interval save and then
// the loop top's cancellation save would both run.
func TestRunCancelOnSaveTickSavesOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := mustNew(t, quietPool(),
		farm.WithSeed(1),
		farm.WithCheckpoint(t.TempDir(), 5*time.Minute, 0),
		farm.WithScenario(time.Minute, func(tt time.Duration, c *cluster.Cluster) {
			storm(tt, c)
			if tt == 5*time.Minute {
				cancel()
			}
		}))
	sub := f.SubscribeBuffered(1 << 14)
	for _, sp := range stormMix() {
		if _, err := f.Submit(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	if _, err := f.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run: %v, want context.Canceled", err)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("subscriber dropped %d events; grow the buffer", sub.Dropped())
	}
	saves := 0
	for ev := range sub.Events() {
		if cs, ok := ev.(farm.CheckpointSaved); ok && cs.T == 5*time.Minute {
			saves++
		}
	}
	if saves != 1 {
		t.Errorf("%d checkpoints saved at 5m, want 1", saves)
	}
}

// TestRunCancelSaveFailure: when the save on cancel fails, Run's error
// still wraps the context's cause, and it names the failed save.
func TestRunCancelSaveFailure(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := mustNew(t, quietPool(), farm.WithCheckpoint(filepath.Join(file, "ckpt"), 0, 0))
	if _, err := f.Run(ctx); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "checkpoint on cancel") {
		t.Errorf("Run saving under a file: %v, want context.Canceled and the failed save", err)
	}
}

// TestRestoredFarmIsClosed: every checkpoint is written after Run has
// closed its farm, so a restored farm refuses Submit with ErrClosed. A
// manifest in the older format, which carried "Closed": false when it
// was saved before Run, still loads, and the farm restored from it is
// closed too.
func TestRestoredFarmIsClosed(t *testing.T) {
	dir := t.TempDir()
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	f := mustNew(t, quietPool(), farm.WithSeed(1),
		farm.WithCheckpoint(dir, 0, 0),
		farm.WithScenario(time.Minute, func(time.Duration, *cluster.Cluster) { crash() }))
	if _, err := f.Submit(farm.JobSpec{ID: "a", Method: "lb2d", JX: 2, JY: 1, Side: 40, Steps: 10000}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("checkpointing run: %v, want context.Canceled", err)
	}

	data, err := os.ReadFile(ckpt.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["Closed"] = json.RawMessage("false")
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt.ManifestPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := farm.Restore(dir, cluster.NewPaperCluster(), nil)
	if err != nil {
		t.Fatalf("restore from a manifest with \"Closed\": false: %v", err)
	}
	if _, err := restored.Submit(farm.JobSpec{ID: "late", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1}, nil); !errors.Is(err, farm.ErrClosed) {
		t.Errorf("Submit to a restored farm: %v, want ErrClosed", err)
	}
}

// TestSubscribeAfterRunIsClosed: a subscription made once the stream is
// over arrives pre-closed instead of blocking its reader forever; one
// made before the next Run observes that run and closes with it.
func TestSubscribeAfterRunIsClosed(t *testing.T) {
	f := mustNew(t, quietPool())
	if _, err := f.Submit(farm.JobSpec{ID: "a", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1}, nil); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	late := f.SubscribeBuffered(1024)
	for range late.Events() {
		t.Error("pre-closed subscription delivered an event")
	}
	if late.Dropped() != 0 {
		t.Errorf("pre-closed subscription dropped %d", late.Dropped())
	}
}

// TestRunOnce: a farm runs once. Whether its Run drained or was
// canceled, a second Run and a Submit fail with ErrClosed at once, and
// the second Run changes no host's assignment: the canceled run's job
// keeps its hosts, as a dead coordinator's would. A subscription made
// after the errored Run arrives closed, and a Wait that started before
// Run reports ErrStopped wrapping the run's error.
func TestRunOnce(t *testing.T) {
	assignments := func(c *cluster.Cluster) []string {
		var out []string
		for _, h := range c.Hosts {
			out = append(out, fmt.Sprintf("%s:%s/%d", h.Name, h.Owner(), h.Assigned()))
		}
		return out
	}
	for _, crash := range []bool{false, true} {
		pool := quietPool()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		f := mustNew(t, pool, farm.WithSeed(1),
			farm.WithScenario(time.Minute, func(tt time.Duration, _ *cluster.Cluster) {
				if crash && tt == 2*time.Minute {
					cancel()
				}
			}))
		j, err := f.Submit(farm.JobSpec{ID: "held", Method: "lb2d", JX: 2, JY: 2, Side: 40, Steps: 20000}, nil)
		if err != nil {
			t.Fatal(err)
		}
		early := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			early <- j.Wait(ctx)
		}()
		f.Drain()
		_, runErr := f.Run(ctx)
		if crash != errors.Is(runErr, context.Canceled) {
			t.Fatalf("crash=%v: first Run returned %v", crash, runErr)
		}
		if crash {
			if j.Status() != farm.StatusRunning {
				t.Fatalf("canceled job is %v, want running", j.Status())
			}
			select {
			case _, open := <-f.SubscribeBuffered(1024).Events():
				if open {
					t.Error("a subscription after an errored Run delivered an event")
				}
			default:
				t.Error("a subscription after an errored Run arrived open")
			}
		}
		before := assignments(pool)
		if _, err := f.Submit(farm.JobSpec{ID: "late", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1}, nil); !errors.Is(err, farm.ErrClosed) {
			t.Errorf("crash=%v: Submit after Run: %v, want ErrClosed", crash, err)
		}
		if _, err := f.Run(context.Background()); !errors.Is(err, farm.ErrClosed) {
			t.Errorf("crash=%v: second Run: %v, want ErrClosed", crash, err)
		}
		if after := assignments(pool); !slices.Equal(before, after) {
			t.Errorf("crash=%v: second Run changed the pool's assignments\nbefore %v\nafter  %v", crash, before, after)
		}
		err = <-early
		if crash && (!errors.Is(err, farm.ErrStopped) || !errors.Is(err, context.Canceled)) {
			t.Errorf("Wait started before Run: %v, want ErrStopped wrapping context.Canceled", err)
		}
		if !crash && err != nil {
			t.Errorf("Wait started before a drained Run: %v, want nil", err)
		}
	}
}

// TestScenarioSubmitIsClosed: Run closes the farm to submissions as
// it starts, so a Submit from a scenario callback fails with ErrClosed
// and the run emits the events of the same run without the call. The
// farm is never drained; the deadline turns a Run that waits for more
// submissions into a failure instead of a hang.
func TestScenarioSubmitIsClosed(t *testing.T) {
	want, _ := collectTrace(t)
	var (
		f       *farm.Farm
		lateErr error
	)
	f = mustNew(t, quietPool(), farm.WithSeed(1),
		farm.WithScenario(time.Minute, func(tt time.Duration, c *cluster.Cluster) {
			if tt == 3*time.Minute {
				_, lateErr = f.Submit(farm.JobSpec{ID: "late", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1}, nil)
			}
			storm(tt, c)
		}))
	sub := f.SubscribeBuffered(1 << 14)
	for _, sp := range stormMix() {
		if _, err := f.Submit(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := f.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(lateErr, farm.ErrClosed) {
		t.Errorf("Submit from a scenario callback: %v, want ErrClosed", lateErr)
	}
	var got []string
	for ev := range sub.Events() {
		got = append(got, ev.String())
	}
	if wantS, gotS := strings.Join(want, "\n"), strings.Join(got, "\n"); wantS != gotS {
		t.Errorf("the refused Submit changed the event stream:\n--- without it ---\n%s\n--- with it ---\n%s", wantS, gotS)
	}
}

// TestRunReturnsWithoutDrain: a farm that was never drained returns
// from Run once every job it took has finished, a late arrival too.
// The deadline turns a Run that waits for more submissions into a
// failure instead of a hang.
func TestRunReturnsWithoutDrain(t *testing.T) {
	f := mustNew(t, quietPool(), farm.WithSeed(1))
	specs := []farm.JobSpec{
		{ID: "now", Method: "lb2d", JX: 2, JY: 2, Side: 40, Steps: 100},
		{ID: "later", Method: "fd2d", JX: 1, JY: 1, Side: 40, Steps: 100, Submit: 30 * time.Minute},
	}
	jobs := make([]*farm.Job, len(specs))
	for i, sp := range specs {
		j, err := f.Submit(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sum, err := f.Run(ctx)
	if err != nil {
		t.Fatalf("undrained Run: %v, want it to return once its jobs finish", err)
	}
	if len(sum.Jobs) != len(jobs) {
		t.Errorf("%d jobs finished, want %d", len(sum.Jobs), len(jobs))
	}
	for i, j := range jobs {
		if j.Status() != farm.StatusFinished {
			t.Errorf("job %s is %v after Run, want finished", specs[i].ID, j.Status())
		}
	}
}

// stateProbe is a spec-only workload that holds one canned rank state
// per host, so a checkpoint has dumps to persist, and records whether
// it was resumed.
type stateProbe struct {
	states  []*dump.State
	resumed bool
}

func (w *stateProbe) Start(hosts []*farm.Host) error {
	w.states = make([]*dump.State, len(hosts))
	for r := range w.states {
		w.states[r] = &dump.State{Rank: r, Step: 7, Method: "lb2d", NX: 1, NY: 1, NZ: 1,
			Fields: map[string][]float64{"rho": {1}}}
	}
	return nil
}
func (w *stateProbe) Suspend() error                        { return nil }
func (w *stateProbe) Resume([]*farm.Host) error             { w.resumed = true; return nil }
func (w *stateProbe) Migrate([]int, []*farm.Host) error     { return nil }
func (w *stateProbe) Resize(farm.Shape, []*farm.Host) error { return nil }
func (w *stateProbe) Finish() error                         { return nil }
func (w *stateProbe) Checkpoint() ([]*dump.State, error)    { return w.states, nil }
func (w *stateProbe) Restore(states []*dump.State) error    { w.states = states; return nil }

// TestRestoreRejectsManifestOptions: policy, backfill and seed belong
// to the checkpoint manifest, so Restore refuses overrides, as it does
// an invalid option. Each refusal comes before restoring touches the
// pool: the checkpoint holds a running job, and a refused Restore has
// reserved none of its hosts and resumed no worker.
func TestRestoreRejectsManifestOptions(t *testing.T) {
	dir := t.TempDir()
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	f := mustNew(t, quietPool(), farm.WithSeed(7),
		farm.WithCheckpoint(dir, 0, 0),
		farm.WithScenario(time.Minute, func(time.Duration, *cluster.Cluster) { crash() }))
	if _, err := f.Submit(farm.JobSpec{ID: "a", Method: "lb2d", JX: 2, JY: 1, Side: 40, Steps: 10000}, &stateProbe{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("checkpointing run: %v, want context.Canceled", err)
	}

	restore := func(opts ...farm.Option) (*cluster.Cluster, *stateProbe, error) {
		pool, w := cluster.NewPaperCluster(), &stateProbe{}
		reg := farm.WorkloadRegistry{"a": func(farm.JobSpec) (farm.Workload, error) { return w, nil }}
		_, err := farm.Restore(dir, pool, reg, opts...)
		return pool, w, err
	}
	for _, opt := range []farm.Option{
		farm.WithPolicy(farm.Priority),
		farm.WithBackfill(farm.BackfillNone),
		farm.WithSeed(9),
		farm.WithScenario(0, func(time.Duration, *cluster.Cluster) {}),
	} {
		pool, w, err := restore(opt)
		if err == nil {
			t.Error("Restore accepted a manifest-owned or invalid option")
		}
		for _, h := range pool.Hosts {
			if h.Assigned() >= 0 {
				t.Errorf("refused Restore reserved host %s for %q", h.Name, h.Owner())
			}
		}
		if w.resumed {
			t.Error("refused Restore resumed the running job's workers")
		}
	}
	pool, w, err := restore()
	if err != nil {
		t.Fatalf("plain Restore failed: %v", err)
	}
	held := 0
	for _, h := range pool.Hosts {
		if h.Owner() == "a" {
			held++
		}
	}
	if held != 2 || !w.resumed {
		t.Errorf("plain Restore holds %d hosts for the running job (resumed %v), want 2 and resumed", held, w.resumed)
	}
}

// TestFarmExampleBitIdentical runs Example_preemptAndMigrate's scenario:
// it fails if the preempted and migrated simulation's solution differs
// from the undisturbed run by a bit, and the narration must show that
// the preemption and the migration both happened.
func TestFarmExampleBitIdentical(t *testing.T) {
	var b strings.Builder
	if err := preemptAndMigrate(&b); err != nil {
		t.Fatal(err)
	}
	const want = "the simulation survived 1 preemption(s) and 1 mid-run migration(s)\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("scenario output lacks %q:\n%s", want, b.String())
	}
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
