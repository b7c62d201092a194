package core

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/registry"
)

// severable forwards every connection made to it on to one address until
// cut, which drops them all: a network that fails under a running job.
type severable struct {
	ln net.Listener
	to string
	wg sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
	cut   bool
}

func newSeverable(t *testing.T, to string) *severable {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &severable{ln: ln, to: to}
	s.wg.Add(1)
	go s.accept()
	return s
}

func (s *severable) accept() {
	defer s.wg.Done()
	for {
		in, err := s.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", s.to)
		if err != nil {
			in.Close()
			continue
		}
		s.mu.Lock()
		s.conns = append(s.conns, in, out)
		if s.cut {
			in.Close()
			out.Close()
		}
		s.mu.Unlock()
		s.wg.Add(2)
		go s.pipe(in, out)
		go s.pipe(out, in)
	}
}

// pipe copies src to dst and passes the end of src on to dst.
func (s *severable) pipe(dst, src net.Conn) {
	defer s.wg.Done()
	io.Copy(dst, src)
	dst.Close()
}

// sever closes the listener and every connection it forwards.
func (s *severable) sever() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cut = true
	for _, c := range s.conns {
		c.Close()
	}
}

// watched decorates a transport: the send of every message of the given
// step to rank to is reported on sent, and rank to itself holds its first
// send of the step until release is closed.
type watched struct {
	msg.Transport
	rank, step, to int
	sent           chan int
	release        chan struct{}
}

func (w watched) Send(m msg.Message) error {
	if m.Step != w.step {
		return w.Transport.Send(m)
	}
	if w.rank == w.to {
		<-w.release
		return w.Transport.Send(m)
	}
	err := w.Transport.Send(m)
	if m.To == w.to {
		w.sent <- w.rank
	}
	return err
}

// TestTCPJobFailsOnPeerLost: a running 2x2 TCP job loses every
// connection to rank 3 at step 5, after the other ranks wrote to it and
// while they wait to read from it. The job fails at once with
// msg.ErrPeerLost, not a wait timeout later with ErrWorkerSilent.
func TestTCPJobFailsOnPeerLost(t *testing.T) {
	const step, lost = 5, 3
	shared, err := registry.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	private, err := registry.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var proxy *severable
	sent, release := make(chan int, 64), make(chan struct{})
	factory := func(rank, epoch int) (msg.Transport, error) {
		reg := shared
		if rank == lost {
			reg = private // its peers find the proxy instead
		}
		tr, err := msg.NewTCP(rank, epoch, reg)
		if err != nil {
			return nil, err
		}
		if rank == lost {
			proxy = newSeverable(t, tr.Addr())
			err = shared.Publish(epoch, rank, proxy.ln.Addr().String())
		}
		return watched{tr, rank, step, lost, sent, release}, err
	}
	j, _ := newTestJobOver(t, channelConfig(t, MethodLB, 2, 2, 24, 16), 100000, factory)
	j.waitTimeout = 5 * time.Second
	j.Start()
	for range j.P() - 1 {
		<-sent
	}
	start := time.Now()
	proxy.sever()
	err = j.WaitDone()
	elapsed := time.Since(start)
	if !errors.Is(err, msg.ErrPeerLost) {
		t.Errorf("job over a dropped connection ended in %v, want msg.ErrPeerLost", err)
	}
	if elapsed >= time.Second {
		t.Errorf("job took %v to fail, want under 1s", elapsed)
	}

	// Closing every rank's channels and releasing rank 3 ends the ranks
	// that are still waiting; then every rank has failed.
	for _, rank := range j.ranks() {
		j.workers[rank].Close()
	}
	close(release)
	for failed := 1; failed < j.P(); failed++ {
		if _, err := j.nextEvent(); err == nil {
			t.Fatal("a rank went on after the job failed")
		}
	}
	j.Shutdown()
	proxy.wg.Wait()
}

// TestTCPPauseIsNoPeerLost: at a pause a rank closes its channels as soon as
// it reaches the synchronization step, while a neighbour may still wait
// on a third rank for the step before. On a chain of six TCP ranks the
// neighbour sees the closed peer's end before that message, and must
// not fail on it: the closed peer sent all it owed first.
func TestTCPPauseIsNoPeerLost(t *testing.T) {
	for range 3 {
		j, _ := newTestJobOver(t, channelConfig(t, MethodFD, 6, 1, 72, 12), 400, tcpFactory(t))
		j.waitTimeout = 5 * time.Second
		j.Start()
		for range 3 {
			if _, err := j.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.WaitDone(); err != nil {
			t.Fatal(err)
		}
		j.Shutdown()
	}
}
