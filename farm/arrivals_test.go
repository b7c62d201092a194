package farm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/decomp"
)

// linearAdmit is the admission scan the scheduler ran before pending
// became a heap, kept as the oracle for the order of JobQueued: walk
// every pending job in submission order, admit what is due and keep the
// rest in order.
func linearAdmit(pending []*jobState, t time.Duration) (admitted, keep []*jobState) {
	keep = pending[:0]
	for _, js := range pending {
		if js.spec.Submit <= t {
			admitted = append(admitted, js)
		} else {
			keep = append(keep, js)
		}
	}
	return admitted, keep
}

// linearNext is the matching scan behind nextEvent's arrival half.
func linearNext(pending []*jobState) time.Duration {
	best := time.Duration(-1)
	for _, js := range pending {
		if best < 0 || js.spec.Submit < best {
			best = js.spec.Submit
		}
	}
	return best
}

// TestAdmitOrderMatchesLinearScan drives admit with seeded batches of
// submissions — arrival times out of submission order, drawn from a
// handful of values so most tie, some already due when admit runs — and
// requires the JobQueued order, every admitted spec, the next arrival
// nextEvent sees and the pending listing to equal the linear scan's at
// every step.
func TestAdmitOrderMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newFarm(idlePool(), FIFO, seed)
		events := tap(t, s)
		var oracle []*jobState
		n := 0
		for now := time.Duration(0); now <= 12*time.Minute; now += time.Minute {
			for k := rng.Intn(6); k > 0; k-- {
				spec := JobSpec{ID: fmt.Sprintf("j%03d", n), Method: "lb2d", JX: 1, JY: 1, Side: 10, Steps: 10,
					Submit: time.Duration(rng.Intn(7)) * 2 * time.Minute}
				n++
				if _, err := s.Submit(spec, nil); err != nil {
					t.Fatal(err)
				}
				oracle = append(oracle, &jobState{spec: spec})
			}

			var want []string
			var admitted []*jobState
			admitted, oracle = linearAdmit(oracle, now)
			for _, js := range admitted {
				want = append(want, fmt.Sprintf("%v %s", now, js.spec.ID))
			}
			before := len(s.queue)
			s.admit(now)
			var queued []string
			for _, ev := range events() {
				if q, ok := ev.(JobQueued); ok {
					queued = append(queued, fmt.Sprintf("%v %s", q.T, q.ID))
				}
			}
			if !reflect.DeepEqual(queued, want) {
				t.Fatalf("seed %d, t=%v: queued %v, the linear scan gives %v", seed, now, queued, want)
			}
			for i, js := range s.queue[before:] {
				if js.spec != admitted[i].spec {
					t.Fatalf("seed %d, t=%v: queue slot %d holds %+v, the linear scan gives %+v",
						seed, now, before+i, js.spec, admitted[i].spec)
				}
			}
			s.running = nil // only arrivals should feed nextEvent here
			next, ok := s.nextEvent()
			if lin := linearNext(oracle); ok != (lin >= 0) || (ok && next != lin) {
				t.Fatalf("seed %d, t=%v: next arrival %v (%v), the linear scan gives %v", seed, now, next, ok, lin)
			}
			var listed, left []string
			for _, js := range s.byPhase()[StatusPending] {
				listed = append(listed, js.spec.ID)
			}
			for _, js := range oracle {
				left = append(left, js.spec.ID)
			}
			if !reflect.DeepEqual(listed, left) {
				t.Fatalf("seed %d, t=%v: byPhase lists pending %v, submission order is %v", seed, now, listed, left)
			}
		}
	}
}

// arrivalFarm is a small FIFO farm whose submissions arrive out of
// order and tie: four jobs share the 4m arrival, one submitted before
// an earlier arrival and one after the 2m pair, which ties too. tick
// runs at every scenario instant.
func arrivalFarm(t *testing.T, tick func(s *Farm, vt time.Duration)) *Farm {
	t.Helper()
	s := newFarm(idlePool(), FIFO, 3)
	submit := func(id string, at time.Duration) {
		t.Helper()
		spec := JobSpec{ID: id, Method: "fd2d", JX: 2, JY: 1, Side: 30, Steps: 4000, Submit: at}
		if _, err := s.Submit(spec, nil); err != nil {
			t.Fatal(err)
		}
	}
	submit("m-tie4", 4*time.Minute)
	submit("c-late9", 9*time.Minute)
	submit("z-tie4", 4*time.Minute)
	submit("k-now", 0)
	submit("a-tie4", 4*time.Minute)
	submit("b-first1", time.Minute)
	submit("y-tie2", 2*time.Minute)
	submit("d-tie4", 4*time.Minute)
	submit("x-tie2", 2*time.Minute)
	s.scenarioEvery = time.Minute
	s.scenario = func(vt time.Duration, _ *cluster.Cluster) { tick(s, vt) }
	return s
}

// TestQueuedOrderDuringRun pins the admission order of a whole Run
// against what the linear scan gave: at each instant, the jobs due in
// the order they were submitted.
func TestQueuedOrderDuringRun(t *testing.T) {
	s := arrivalFarm(t, func(*Farm, time.Duration) {})
	events := tap(t, s)
	if _, err := s.loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	var queued []string
	for _, ev := range events() {
		if _, ok := ev.(JobQueued); ok {
			queued = append(queued, ev.String())
		}
	}
	want := []string{
		"t=0s queued k-now",
		"t=1m0s queued b-first1",
		"t=2m0s queued y-tie2", "t=2m0s queued x-tie2",
		"t=4m0s queued m-tie4", "t=4m0s queued z-tie4", "t=4m0s queued a-tie4", "t=4m0s queued d-tie4",
		"t=9m0s queued c-late9",
	}
	if !reflect.DeepEqual(queued, want) {
		t.Errorf("JobQueued order:\n got %s\nwant %s", strings.Join(queued, "\n     "), strings.Join(want, "\n     "))
	}
}

// TestCheckpointKeepsPendingOrder: a checkpoint taken while jobs still
// wait on pending — out of arrival order and tied —
// restores to the same listing of jobs and handles, and the restored farm emits
// exactly the events the original had left.
func TestCheckpointKeepsPendingOrder(t *testing.T) {
	const at = 3 * time.Minute
	ref := arrivalFarm(t, func(*Farm, time.Duration) {})
	refEvents := tap(t, ref)
	if _, err := ref.loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	whole := traceOf(refEvents())

	dir := t.TempDir()
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	s1 := arrivalFarm(t, func(_ *Farm, vt time.Duration) {
		if vt == at {
			crash()
		}
	})
	s1.ckptDir = dir // the cancel saves there
	s1Events := tap(t, s1)
	if _, err := s1.loop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled at the checkpoint tick", err)
	}
	head := traceOf(s1Events())
	var pending []string
	for _, js := range s1.byPhase()[StatusPending] {
		pending = append(pending, js.spec.ID)
	}
	if want := []string{"m-tie4", "c-late9", "z-tie4", "a-tie4", "d-tie4"}; !reflect.DeepEqual(pending, want) {
		t.Fatalf("pending at %v = %v, want submission order %v", at, pending, want)
	}

	s2, err := Restore(dir, cluster.NewPaperCluster(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := listing(s2), listing(s1); !reflect.DeepEqual(got, want) {
		t.Errorf("restored farm lists %v, the checkpointed farm %v", got, want)
	}
	s2Events := tap(t, s2)
	s2.scenarioEvery = time.Minute
	s2.scenario = func(time.Duration, *cluster.Cluster) {}
	if _, err := s2.loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	tail := traceOf(s2Events())
	// s1 announces its own checkpoint commit; the uninterrupted run has no
	// such line, every other one must match.
	var joined []string
	for _, ev := range append(head, tail...) {
		if !strings.Contains(ev, "checkpoint") {
			joined = append(joined, ev)
		}
	}
	if !reflect.DeepEqual(joined, whole) {
		t.Errorf("checkpointed at %v and restored, the farm emitted\n%s\nuninterrupted it emits\n%s",
			at, strings.Join(joined, "\n"), strings.Join(whole, "\n"))
	}
}

// traceOf renders events in their trace form.
func traceOf(evs []Event) []string {
	trace := make([]string, len(evs))
	for i, ev := range evs {
		trace[i] = ev.String()
	}
	return trace
}

// listing names every job the farm holds, in byPhase order, with the
// status it sits in and the status its handle reports.
func listing(f *Farm) []string {
	var l []string
	for st, jobs := range f.byPhase() {
		for _, js := range jobs {
			j, _ := f.Job(js.spec.ID)
			l = append(l, fmt.Sprintf("%s %v %v", js.spec.ID, Status(st), j.Status()))
		}
	}
	return l
}

// TestPlacementErrorsAreNotShortfalls: only cluster.ErrShortfall means
// "does not fit now, try the next job"; any other Reserve failure is a
// fault of the farm and stops the round. A queued job with no ranks —
// which Submit's validation never lets through — stands in for one.
func TestPlacementErrorsAreNotShortfalls(t *testing.T) {
	s := newFarm(idlePool(), FIFO, 1)
	s.queue = []*jobState{{spec: JobSpec{ID: "rankless", Method: "lb2d"}, work: nullWorkload{}}}
	err := s.scheduleRound(0)
	if err == nil || errors.Is(err, cluster.ErrShortfall) || !strings.Contains(err.Error(), "rankless") {
		t.Errorf("scheduleRound with an unreservable job returned %v, want a fatal error naming it", err)
	}
	if len(s.queue) != 1 || len(s.running) != 0 {
		t.Errorf("the failed round moved the job: %d queued, %d running", len(s.queue), len(s.running))
	}

	// A real shortfall still just leaves the job queued.
	s = newFarm(idlePool(), FIFO, 1)
	if _, err := s.cluster.Reserve("other", 24, s.selection, nil); err != nil {
		t.Fatal(err)
	}
	s.queue = []*jobState{{spec: JobSpec{ID: "wide", Method: "lb2d", JX: 2, JY: 1, Side: 10, Steps: 10},
		work: nullWorkload{}, Accounting: ckpt.Accounting{Remaining: 10}}}
	if err := s.scheduleRound(0); err != nil || len(s.queue) != 1 {
		t.Errorf("shortfall: err = %v with %d queued, want the job left waiting", err, len(s.queue))
	}
}

// TestPricingAllocatesNothing gates the two pricing calls a placement
// attempt makes per job: on an 8-rank mixed-model placement with the
// job's shape resolved, neither ComputeTimer nor Imbalance allocates.
func TestPricingAllocatesNothing(t *testing.T) {
	pool := idlePool()
	spec := JobSpec{ID: "j", Method: "lb2d", JX: 4, JY: 2, Side: 30, Steps: 100}
	hosts := append(append([]*cluster.Host(nil), pool.Hosts[12:18]...), pool.Hosts[23:]...) // 715s, 720s, 710s
	weighted, err := WeightedShape(spec, hosts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []struct {
		name  string
		shape decomp.Shape
	}{{"uniform", uniformShape(spec)}, {"weighted", weighted}} {
		for name, price := range map[string]func(JobSpec, decomp.Shape, []*cluster.Host) (float64, error){
			"ComputeTimer": ComputeTimer, "Imbalance": Imbalance,
		} {
			n := testing.AllocsPerRun(100, func() {
				if v, err := price(spec, sh.shape, hosts); err != nil || v <= 0 {
					t.Fatalf("%s(%s) = %v, %v", name, sh.name, v, err)
				}
			})
			if n != 0 {
				t.Errorf("%s on the %s shape allocates %v times a call, want 0", name, sh.name, n)
			}
		}
	}
}
