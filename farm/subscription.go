package farm

import "sync"

// Subscription is one bounded tap on the farm's event stream.
//
// Delivery never blocks the scheduling round: events are sent
// non-blockingly into the subscription's buffered channel, and when the
// buffer is full the new event is dropped and counted — Dropped
// reports how many. A subscriber that must see every event sizes its
// buffer for the trace or drains concurrently; a slow or abandoned
// subscriber costs the farm nothing.
//
// The channel is closed when the stream is over: the farm's Run
// returned, whether drained, canceled or failed, which ends any range
// loop over Events. A farm runs once, so no later event can follow; a
// restored farm is a new stream (Restore).
type Subscription struct {
	f *Farm

	mu      sync.Mutex
	ch      chan Event
	dropped int
	closed  bool
}

// SubscribeBuffered taps the farm's event stream with a buffer of n
// events (minimum 1); see Subscription for the overflow policy.
// Subscribe before Run to see the whole stream; a subscription made
// mid-run starts at the current round. A farm emits a handful of events
// per scheduling round, so a buffer of a thousand rides out a subscriber
// that drains in batches; size it for the trace to collect one whole.
// A subscription made after the farm's Run has returned arrives
// already closed: the stream it would have observed is over, so a range
// over Events ends immediately instead of blocking on a channel nothing
// will ever close.
func (f *Farm) SubscribeBuffered(n int) *Subscription {
	if n < 1 {
		n = 1
	}
	sub := &Subscription{f: f, ch: make(chan Event, n)}
	f.hmu.Lock()
	defer f.hmu.Unlock()
	select {
	case <-f.runDone:
		// Nothing else holds the fresh subscription, so its channel
		// closes without sub.mu: no farm lock is taken under another.
		sub.closed = true
		close(sub.ch)
	default:
		f.subs = append(f.subs, sub)
	}
	return sub
}

// Events returns the subscription's channel. It is closed when the
// stream ends (the farm's Run returned) or the subscription is closed.
func (sub *Subscription) Events() <-chan Event { return sub.ch }

// Dropped reports how many events overflowed the buffer and were
// discarded.
func (sub *Subscription) Dropped() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.dropped
}

// Close detaches the subscription from the farm and closes its channel.
// Idempotent; buffered events remain readable until drained.
func (sub *Subscription) Close() {
	f := sub.f
	f.hmu.Lock()
	for i, s := range f.subs {
		if s == sub {
			// A fresh array: emit ranges over the old one unlocked.
			f.subs = append(f.subs[:i:i], f.subs[i+1:]...)
			break
		}
	}
	f.hmu.Unlock()
	sub.shut()
}

// send delivers one event without ever blocking; overflow drops it.
func (sub *Subscription) send(ev Event) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	select {
	case sub.ch <- ev:
	default:
		sub.dropped++
	}
}

// shut closes the channel once.
func (sub *Subscription) shut() {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if !sub.closed {
		sub.closed = true
		close(sub.ch)
	}
}

// emit delivers one event of a scheduling round: it updates the job
// handles, then fans the event out to every subscription. It runs
// synchronously on the scheduling goroutine, so handle state and
// subscriber order are deterministic for a fixed seed.
func (f *Farm) emit(ev Event) {
	f.track(ev)
	f.hmu.Lock()
	subs := f.subs
	f.hmu.Unlock()
	for _, sub := range subs {
		sub.send(ev)
	}
}

// track folds one event into the job-handle lifecycle. It reads the
// handle map without a lock: Run closed the farm to submissions, so the
// map no longer changes.
func (f *Farm) track(ev Event) {
	var (
		id string
		st Status
	)
	switch e := ev.(type) {
	case JobQueued:
		id, st = e.ID, StatusQueued
	case JobPlaced:
		id, st = e.ID, StatusRunning
	case JobBackfilled:
		id, st = e.ID, StatusRunning
	case JobPreempted:
		id, st = e.ID, StatusQueued
	case JobFinished:
		if j := f.jobs[e.ID]; j != nil {
			j.finish(e.Job)
		}
		return
	default:
		return // migrations and resizes keep the job running; host/checkpoint/autoscale events carry no job state
	}
	if j := f.jobs[id]; j != nil {
		j.setStatus(st)
	}
}
