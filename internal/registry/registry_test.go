package registry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestPublishLookup(t *testing.T) {
	r, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(0, 3, "127.0.0.1:4455"); err != nil {
		t.Fatal(err)
	}
	addr, err := r.Lookup(0, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:4455" {
		t.Errorf("addr = %q", addr)
	}
}

func TestLookupTimesOut(t *testing.T) {
	r, _ := New(t.TempDir())
	start := time.Now()
	if _, err := r.Lookup(0, 9, 30*time.Millisecond); err == nil {
		t.Error("lookup of unpublished rank succeeded")
	}
	if time.Since(start) > time.Second {
		t.Error("lookup did not respect its timeout")
	}
}

func TestLookupWaitsForLatePublish(t *testing.T) {
	r, _ := New(t.TempDir())
	go func() {
		time.Sleep(20 * time.Millisecond)
		r.Publish(0, 1, "late:1")
	}()
	addr, err := r.Lookup(0, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "late:1" {
		t.Errorf("addr = %q", addr)
	}
}

func TestEpochNamespacing(t *testing.T) {
	r, _ := New(t.TempDir())
	r.Publish(0, 1, "old")
	r.Publish(1, 1, "new")
	a0, _ := r.Lookup(0, 1, time.Second)
	a1, _ := r.Lookup(1, 1, time.Second)
	if a0 != "old" || a1 != "new" {
		t.Errorf("epoch confusion: %q %q", a0, a1)
	}
	if err := r.Unpublish(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup(0, 1, 20*time.Millisecond); err == nil {
		t.Error("unpublished entry still resolves")
	}
	if got, _ := r.Lookup(1, 1, time.Second); got != "new" {
		t.Error("Unpublish removed the other epoch's entry")
	}
}

func TestUnpublishIdempotent(t *testing.T) {
	r, _ := New(t.TempDir())
	if err := r.Unpublish(0, 5); err != nil {
		t.Errorf("unpublish of missing entry: %v", err)
	}
	r.Publish(0, 5, "x")
	if err := r.Unpublish(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := r.Unpublish(0, 5); err != nil {
		t.Errorf("second unpublish: %v", err)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	r, _ := New(t.TempDir())
	const n = 20
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			r.Publish(0, rank, fmt.Sprintf("addr-%d", rank))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		addr, err := r.Lookup(0, i, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if addr != fmt.Sprintf("addr-%d", i) {
			t.Errorf("rank %d addr = %q", i, addr)
		}
	}
}

func TestRepublishOverwrites(t *testing.T) {
	r, _ := New(t.TempDir())
	r.Publish(0, 1, "first")
	r.Publish(0, 1, "second")
	if addr, _ := r.Lookup(0, 1, time.Second); addr != "second" {
		t.Errorf("addr = %q, want second", addr)
	}
}
