package syncfile

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestAnnounceAndRead(t *testing.T) {
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Announce(0, 2, 17)
	s.Announce(0, 0, 15)
	s.Announce(0, 1, 16)
	steps, err := s.ReadRound(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 || steps[0] != 15 || steps[1] != 16 || steps[2] != 17 {
		t.Errorf("steps = %v", steps)
	}
}

func TestReadMissingRoundIsEmpty(t *testing.T) {
	s, _ := New(t.TempDir())
	steps, err := s.ReadRound(99)
	if err != nil || len(steps) != 0 {
		t.Errorf("missing round: %v, %v", steps, err)
	}
}

func TestWaitAllReturnsTmaxPlusOne(t *testing.T) {
	s, _ := New(t.TempDir())
	s.Announce(1, 0, 10)
	s.Announce(1, 1, 14)
	s.Announce(1, 2, 12)
	got, err := s.WaitAll(1, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Errorf("sync step = %d, want 15 (T_max + 1)", got)
	}
}

func TestWaitAllTimesOut(t *testing.T) {
	s, _ := New(t.TempDir())
	s.Announce(2, 0, 5)
	if _, err := s.WaitAll(2, 3, 30*time.Millisecond); err == nil {
		t.Error("WaitAll with missing announcements succeeded")
	}
}

// TestConcurrentSyncStep runs P goroutines through a full round, as the
// parallel processes do on a migration signal: all must agree on the step.
func TestConcurrentSyncStep(t *testing.T) {
	s, _ := New(t.TempDir())
	const p = 8
	// Un-synchronized current steps, max 23 -> sync step 24.
	steps := [p]int{20, 23, 21, 22, 20, 21, 23, 19}
	var wg sync.WaitGroup
	results := make([]int, p)
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = s.SyncStep(5, rank, steps[rank], p, 5*time.Second)
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if results[r] != 24 {
			t.Errorf("rank %d sync step = %d, want 24", r, results[r])
		}
	}
}

func TestRoundsAreIsolated(t *testing.T) {
	s, _ := New(t.TempDir())
	s.Announce(0, 0, 100)
	s.Announce(1, 0, 5)
	got, err := s.WaitAll(1, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("round 1 sync step = %d, want 6 (round 0 must not leak)", got)
	}
}

func TestClear(t *testing.T) {
	s, _ := New(t.TempDir())
	s.Announce(3, 0, 1)
	if err := s.Clear(3); err != nil {
		t.Fatal(err)
	}
	steps, _ := s.ReadRound(3)
	if len(steps) != 0 {
		t.Error("cleared round still has announcements")
	}
	if err := s.Clear(3); err != nil {
		t.Errorf("double clear: %v", err)
	}
}

func TestRankReannouncementTakesLatest(t *testing.T) {
	// If a rank announces twice (restart during a round), the later line
	// wins because the map is rebuilt in file order.
	s, _ := New(t.TempDir())
	s.Announce(4, 0, 7)
	s.Announce(4, 0, 9)
	steps, _ := s.ReadRound(4)
	if steps[0] != 9 {
		t.Errorf("rank 0 step = %d, want 9", steps[0])
	}
}

// TestAnnounceRingsParkedWaiter: an in-process Announce closes the bell a
// parked WaitAll holds, so the waiter re-reads the round on the last
// announcement instead of at its next poll. The check is on the channel,
// not on a clock.
func TestAnnounceRingsParkedWaiter(t *testing.T) {
	s, _ := New(t.TempDir())
	if err := s.Announce(7, 0, 3); err != nil {
		t.Fatal(err)
	}
	type result struct {
		step int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		step, err := s.WaitAll(7, 2, 10*time.Second)
		done <- result{step, err}
	}()
	// One of two ranks has announced, so the waiter takes a bell and parks.
	var bell chan struct{}
	for bell == nil {
		select {
		case r := <-done:
			t.Fatalf("WaitAll returned %d, %v before the second announcement", r.step, r.err)
		default:
		}
		runtime.Gosched()
		s.mu.Lock()
		bell = s.bell
		s.mu.Unlock()
	}
	if err := s.Announce(7, 1, 5); err != nil {
		t.Fatal(err)
	}
	select {
	case <-bell:
	default:
		t.Fatal("Announce left the parked waiter's bell open")
	}
	if r := <-done; r.err != nil || r.step != 6 {
		t.Errorf("WaitAll = %d, %v; want 6 (T_max + 1)", r.step, r.err)
	}
}
