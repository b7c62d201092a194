package msg

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/registry"
)

func TestChanRoundTrip(t *testing.T) {
	hub := NewHub()
	a, b := hub.Join(0), hub.Join(1)
	defer a.Close()
	defer b.Close()

	want := Message{To: 1, Step: 7, Phase: 1, Dir: 3, Data: []float64{1.5, -2.5, 3.25}}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 0 || got.Step != 7 || got.Phase != 1 || got.Dir != 3 {
		t.Errorf("header mismatch: %+v", got)
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Errorf("payload[%d] = %v, want %v", i, got.Data[i], v)
		}
	}
}

func TestChanPayloadIsCopied(t *testing.T) {
	hub := NewHub()
	a, b := hub.Join(0), hub.Join(1)
	defer a.Close()
	defer b.Close()
	buf := []float64{1, 2, 3}
	if err := a.Send(Message{To: 1, Data: buf}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // sender reuses its pack buffer
	got, _ := b.Recv()
	if got.Data[0] != 1 {
		t.Error("transport aliased the sender's buffer")
	}
}

// TestChanSentBeforeJoinDeliveredAfter: a send to a rank that has not
// joined yet (a migrated rank re-opening its channels) returns at once,
// and the rank reads the message when it joins.
func TestChanSentBeforeJoinDeliveredAfter(t *testing.T) {
	hub := NewHub()
	a := hub.Join(0)
	defer a.Close()
	if err := a.Send(Message{To: 1, Step: 4, Data: []float64{2.5}}); err != nil {
		t.Fatalf("send before join: %v", err)
	}
	b := hub.Join(1)
	defer b.Close()
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 0 || m.Step != 4 || len(m.Data) != 1 || m.Data[0] != 2.5 {
		t.Errorf("message sent before the join arrived as %+v", m)
	}
	// A second join of a joined rank gets a mailbox of its own.
	c := hub.Join(1)
	defer c.Close()
	if err := a.Send(Message{To: 1, Step: 5}); err != nil {
		t.Fatal(err)
	}
	if m, err := c.Recv(); err != nil || m.Step != 5 {
		t.Errorf("rejoined rank read %+v, %v; want step 5", m, err)
	}
}

func TestChanCloseUnblocksRecv(t *testing.T) {
	hub := NewHub()
	a := hub.Join(0)
	done := make(chan error)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("Recv after close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := a.Send(Message{To: 0}); err != ErrClosed {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
}

func TestChanFCFSAcrossPeers(t *testing.T) {
	hub := NewHub()
	r := hub.Join(0)
	defer r.Close()
	const peers = 5
	for p := 1; p <= peers; p++ {
		s := hub.Join(p)
		if err := s.Send(Message{To: 0, Step: p}); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	seen := map[int]bool{}
	for i := 0; i < peers; i++ {
		m, err := r.Recv()
		if err != nil {
			t.Fatal(err)
		}
		seen[m.From] = true
	}
	if len(seen) != peers {
		t.Errorf("received from %d distinct peers, want %d", len(seen), peers)
	}
}

func newTCPPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	reg, err := registry.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewTCP(0, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(1, 0, reg)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := newTCPPair(t)
	data := make([]float64, 1000)
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	if err := a.Send(Message{To: 1, Step: 3, Phase: 0, Dir: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 0 || got.To != 1 || got.Step != 3 {
		t.Errorf("header mismatch: %+v", got)
	}
	for i := range data {
		if got.Data[i] != data[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, got.Data[i], data[i])
		}
	}
}

func TestTCPBidirectionalSingleConnection(t *testing.T) {
	// After a dials b, replies from b to a must flow without b dialing
	// back (the paper's channels are bidirectional FIFOs).
	a, b := newTCPPair(t)
	if err := a.Send(Message{To: 1, Step: 1, Data: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(Message{To: 0, Step: 2, Data: []float64{2}}); err != nil {
		t.Fatal(err)
	}
	m, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 1 || m.Step != 2 || m.Data[0] != 2 {
		t.Errorf("reply mismatch: %+v", m)
	}
}

func TestTCPEmptyPayload(t *testing.T) {
	a, b := newTCPPair(t)
	if err := a.Send(Message{To: 1, Step: 9}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Step != 9 || len(m.Data) != 0 {
		t.Errorf("empty-payload message mangled: %+v", m)
	}
}

func TestTCPRing(t *testing.T) {
	// A ring of workers exchanging with both neighbours for several
	// steps: the standard communication pattern of a (P x 1)
	// decomposition.
	const P = 6
	const steps = 20
	reg, err := registry.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]*TCP, P)
	for i := range ts {
		tt, err := NewTCP(i, 0, reg)
		if err != nil {
			t.Fatal(err)
		}
		ts[i] = tt
		defer tt.Close()
	}
	var wg sync.WaitGroup
	errCh := make(chan error, P)
	for i := 0; i < P; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr := ts[rank]
			left, right := (rank+P-1)%P, (rank+1)%P
			for s := 0; s < steps; s++ {
				payload := []float64{float64(rank), float64(s)}
				if err := tr.Send(Message{To: left, Step: s, Dir: 0, Data: payload}); err != nil {
					errCh <- err
					return
				}
				if err := tr.Send(Message{To: right, Step: s, Dir: 1, Data: payload}); err != nil {
					errCh <- err
					return
				}
				for n := 0; n < 2; n++ {
					m, err := tr.Recv()
					if err != nil {
						errCh <- err
						return
					}
					if m.From != left && m.From != right {
						errCh <- fmt.Errorf("rank %d got message from %d", rank, m.From)
						return
					}
					if int(m.Data[0]) != m.From {
						errCh <- fmt.Errorf("rank %d payload/from mismatch", rank)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	reg, _ := registry.New(t.TempDir())
	a, err := NewTCP(0, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("Recv after close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

// TestTCPCloseUnblocksAcceptWait: a higher rank waits for its lower peer
// to dial it. When the peer never does, Close ends the wait with
// ErrClosed at once instead of after DialTimeout.
func TestTCPCloseUnblocksAcceptWait(t *testing.T) {
	reg, err := registry.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(1, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.Send(Message{To: 0, Step: 1}) }()
	select {
	case err := <-done:
		t.Fatalf("Send to a peer that never dials returned %v before Close", err)
	case <-time.After(20 * time.Millisecond):
	}
	b.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Send after Close = %v, want ErrClosed", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("Send still waiting for the peer 100ms after Close")
	}
}

func TestTCPEpochIsolation(t *testing.T) {
	// A transport in epoch 1 must not connect to a peer published only in
	// epoch 0: re-opened channels after migration use fresh addresses.
	reg, _ := registry.New(t.TempDir())
	a, err := NewTCP(0, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(1, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := reg.Lookup(1, 0, 50*time.Millisecond); err == nil {
		t.Error("epoch-1 lookup found an epoch-0 address")
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	r, w := newPipe()
	go func() {
		w.Write([]byte("this is not a frame header......"))
		w.Close()
	}()
	if _, err := newFrameReader(r).next(); !errors.Is(err, errBadFrame) {
		t.Errorf("garbage frame: %v, want errBadFrame", err)
	}
}

// recvWithin runs Recv and fails the test unless it returns within d.
func recvWithin(t *testing.T, tr *TCP, d time.Duration) (Message, error) {
	t.Helper()
	type result struct {
		m   Message
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := tr.Recv()
		done <- result{m, err}
	}()
	select {
	case r := <-done:
		return r.m, r.err
	case <-time.After(d):
		tr.Close() // ends the Recv above
		t.Fatalf("Recv still blocked after %v", d)
		return Message{}, nil
	}
}

// TestTCPPeerLostOnDrop: when a peer's connection drops, Recv first
// hands over every frame that arrived before the drop, then fails with
// ErrPeerLost naming the peer, at once instead of never.
func TestTCPPeerLostOnDrop(t *testing.T) {
	a, b := newTCPPair(t)
	if err := a.Send(Message{To: 1, Step: 4, Data: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	conn := a.peers[1].conn
	a.mu.Unlock()
	conn.Close()
	if m, err := recvWithin(t, b, time.Second); err != nil || m.Step != 4 {
		t.Fatalf("first Recv after the drop = step %d, %v; want the frame sent before it", m.Step, err)
	}
	m, err := recvWithin(t, b, time.Second)
	if !errors.Is(err, ErrPeerLost) || m.From != 0 {
		t.Errorf("Recv after the drop = from %d, %v; want ErrPeerLost from rank 0", m.From, err)
	}
}

// TestTCPPeerLostOnCorruptFrame: a peer that writes something that is not
// a frame is lost, with the bad frame as the cause.
func TestTCPPeerLostOnCorruptFrame(t *testing.T) {
	_, b := newTCPPair(t)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [4]byte // rank 0
	if _, err := conn.Write(append(hello[:], "this is not a frame header......"...)); err != nil {
		t.Fatal(err)
	}
	m, err := recvWithin(t, b, time.Second)
	if !errors.Is(err, ErrPeerLost) || !errors.Is(err, errBadFrame) || m.From != 0 {
		t.Errorf("Recv after a corrupt frame = from %d, %v; want ErrPeerLost from rank 0 caused by a bad frame", m.From, err)
	}
}

// TestHubSendRacesClose: a Send that races its receiver's Close either
// delivers or fails with ErrPeerLost naming the peer; it never panics.
// The hub never closes a mailbox's channel, so there is no send on a
// closed channel to race into.
func TestHubSendRacesClose(t *testing.T) {
	lost := 0
	for range 2000 {
		hub := NewHub()
		a, b := hub.Join(0), hub.Join(1)
		started, errs := make(chan struct{}), make(chan error, 1)
		go func() {
			for i := range 50 {
				if err := a.Send(Message{To: 1, Data: []float64{1}}); err != nil {
					errs <- err
					return
				}
				if i == 0 {
					close(started)
				}
			}
			errs <- nil
		}()
		<-started
		b.Close()
		if err := <-errs; err != nil {
			if !errors.Is(err, ErrPeerLost) || !strings.Contains(err.Error(), "rank 1") {
				t.Fatalf("Send into a closing mailbox: %v, want ErrPeerLost naming rank 1", err)
			}
			lost++
		}
		a.Close()
	}
	t.Logf("%d of 2000 senders met the Close", lost)
}
