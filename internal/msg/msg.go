// Package msg is the custom messaging layer of section 4.2, replacing the
// paper's UNIX sockets with Go's net package (there is no MPI ecosystem in
// this reproduction; the transports below are the "custom RPC" substitute).
//
// Two transports implement the same interface:
//
//   - TCP: framed messages over real TCP connections on the loopback
//     interface, with the shared-file port registry handshake of the paper
//     ("I am listening at this port number ... Okay, the channel is open").
//     Connections stay open for the life of an epoch and are re-opened
//     after migrations, exactly as in section 4.2.
//
//   - Chan: in-process channels, used by tests and by the single-process
//     parallel runner; it preserves the same first-come-first-served
//     delivery semantics.
//
// Receive is FCFS across all peers (appendix C: asynchronous
// first-come-first-served communication via select outperforms strict
// ordering because delayed processes do not stall the others); the driver
// matches arrived messages to (step, phase, direction) slots itself.
//
// A driver hands a phase's messages over at once with SendAll. TCP then
// writes each peer's frames with one write; any other transport gets one
// Send per message. The frames and their order on every connection are
// the same either way.
//
// A received payload belongs to the transport. Send copies the sender's
// buffer into a transport buffer (the hub's copy, or TCP's decode on the
// receiving side); the receiver holds it until it has consumed it and then
// hands it back with Release, which puts it on a bounded free list for the
// next message to reuse. In a steady run every buffer comes off a free
// list, so moving a message allocates nothing.
package msg

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/registry"
)

// Message is one halo-exchange (or control) message between two parallel
// subprocesses.
type Message struct {
	From, To int
	Step     int // integration time step the payload belongs to
	Phase    int // solver phase within the step
	Dir      int // direction code, from the receiver's perspective
	Data     []float64
}

// ErrClosed is returned by Recv and Send after Close.
var ErrClosed = errors.New("msg: transport closed")

// ErrPeerLost is returned (wrapped, naming the peer and the cause) by a TCP
// transport's Recv once a peer's connection has ended, after every frame
// read from it before the end, and by Send when a write to the peer
// fails, or when a hub peer's mailbox closed under the Send. The Message
// that Recv returns with it has From set to the lost peer.
var ErrPeerLost = errors.New("msg: peer lost")

// Transport sends and receives messages between ranks.
type Transport interface {
	// Send delivers m to rank m.To. It may block briefly for flow
	// control but never waits for the receiver to call Recv.
	Send(m Message) error
	// Recv blocks until any message arrives (FCFS over all peers). The
	// payload belongs to the transport: the caller may read it until it
	// hands it back with Release.
	Recv() (Message, error)
	// Release hands a payload Recv returned back to the transport, which
	// reuses it for a later message. The caller must not touch data
	// afterwards. A payload that is never released is left to the
	// garbage collector.
	Release(data []float64)
	// Close tears the transport down; blocked Recv calls return ErrClosed.
	Close() error
}

// batchSender is the optional batch half of a Transport. It is not on the
// interface: a decorator that embeds a Transport and overrides Send would
// otherwise inherit the inner transport's SendAll and be bypassed by it.
type batchSender interface {
	SendAll(ms []Message) error
}

// SendAll sends ms in order with the same contract as Send: through t's
// own SendAll when it has one, otherwise with one Send per message,
// stopping at the first error.
func SendAll(t Transport, ms []Message) error {
	if b, ok := t.(batchSender); ok {
		return b.SendAll(ms)
	}
	for _, m := range ms {
		if err := t.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// queueCap bounds in-flight messages per transport. A direct neighbour
// runs at most one step ahead (appendix A), so a rank's neighbours have
// at most two steps' messages out to it, 24 for an interior FD3D rank:
// real runs stay far below this.
const queueCap = 1024

// freeCap bounds a free list of released payload buffers; a Release into a
// full list drops the buffer. A list only ever holds buffers that were out
// at once, and a rank's neighbours cannot get more than a step ahead of it
// (each needs this rank's messages of its step to finish it), so at most
// two steps' messages to one rank are out at a time: DESIGN.md has the
// count.
const freeCap = 64

// freeList is a bounded list of payload buffers, safe for concurrent use.
type freeList chan []float64

// take returns the next buffer on the list, emptied, when it has room for
// n values, and nil otherwise; a buffer too small is dropped.
func (f freeList) take(n int) []float64 {
	select {
	case b := <-f:
		if cap(b) >= n {
			return b[:0]
		}
	default:
	}
	return nil
}

// put keeps b for reuse, unless the list is full.
func (f freeList) put(b []float64) {
	if cap(b) == 0 {
		return
	}
	select {
	case f <- b:
	default:
	}
}

// ---------------------------------------------------------------------------
// Channel transport

// Hub connects a set of in-process Chan transports. A rank's mailbox is
// made by the first Send to it or by its Join, whichever comes first, and
// Join takes it over: a sender never waits for its peer to join, and a
// rank that never joins fails its job through the coordinator's
// WaitTimeout. This is safe across migrations because at a pause every
// rank stops at the same step, having received all that was sent for the
// steps before it, so no old-epoch message can reach a new mailbox.
type Hub struct {
	mu    sync.Mutex
	boxes map[int]*mailbox
}

// mailbox is one rank's queue; joined is set once a Chan reads it. Its
// channel is never closed: the reading Chan's Close closes done, so a Send
// that raced the Close fails instead of panicking. free holds the payload
// buffers the reader released, for the senders to copy into.
type mailbox struct {
	ch     chan Message
	done   chan struct{}
	free   freeList
	joined bool
}

// NewHub creates an empty hub; ranks join with Join.
func NewHub() *Hub { return &Hub{boxes: make(map[int]*mailbox)} }

// box returns rank's mailbox, made on first use, or made anew for a join
// when the current one is joined already. h.mu must be held.
func (h *Hub) box(rank int, join bool) *mailbox {
	b, ok := h.boxes[rank]
	if !ok || join && b.joined {
		b = &mailbox{ch: make(chan Message, queueCap), done: make(chan struct{}), free: make(freeList, freeCap)}
		h.boxes[rank] = b
	}
	b.joined = b.joined || join
	return b
}

// Join registers a rank and returns its transport, taking over the
// messages sent to it before the join. Joining a joined rank replaces its
// mailbox.
func (h *Hub) Join(rank int) *Chan {
	h.mu.Lock()
	defer h.mu.Unlock()
	return &Chan{hub: h, rank: rank, box: h.box(rank, true)}
}

// Chan is the in-process transport of one rank.
type Chan struct {
	hub  *Hub
	rank int
	box  *mailbox
	once sync.Once // closes box.done
}

// Send delivers m to the mailbox of rank m.To, which need not have joined
// yet (it may be re-opening its channels after a migration). The payload
// is copied into a buffer the mailbox's reader released, so the sender
// may reuse its pack buffer. A mailbox whose reader closed it under the
// Send fails it with ErrPeerLost.
func (c *Chan) Send(m Message) error {
	if isDone(c.box.done) {
		return ErrClosed
	}
	c.hub.mu.Lock()
	box := c.hub.box(m.To, false)
	c.hub.mu.Unlock()
	m.From = c.rank
	m.Data = append(box.free.take(len(m.Data)), m.Data...)
	if !isDone(box.done) {
		select {
		case box.ch <- m:
			return nil
		case <-box.done:
		}
	}
	return fmt.Errorf("msg: rank %d lost rank %d: %w: its mailbox closed", c.rank, m.To, ErrPeerLost)
}

// isDone reports whether done has been closed.
func isDone(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Recv blocks until a message arrives or the Chan is closed.
func (c *Chan) Recv() (Message, error) {
	select {
	case m := <-c.box.ch:
		return m, nil
	case <-c.box.done:
		return Message{}, ErrClosed
	}
}

// Release puts a received payload on the mailbox's free list.
func (c *Chan) Release(data []float64) { c.box.free.put(data) }

// Close closes the mailbox; pending messages are discarded.
func (c *Chan) Close() error {
	c.once.Do(func() {
		c.hub.mu.Lock()
		if c.hub.boxes[c.rank] == c.box {
			delete(c.hub.boxes, c.rank)
		}
		c.hub.mu.Unlock()
		close(c.box.done)
	})
	return nil
}

// ---------------------------------------------------------------------------
// TCP transport

// frame header: magic, from, step, phase, dir, payload length (in values).
const (
	frameMagic  = 0x50415331 // "PAS1", after the paper's author
	headerBytes = 6 * 4
	// maxValues bounds the payload length a header may declare.
	maxValues = 1 << 26
	// readBufBytes sizes each connection's read buffer: one read takes in
	// every frame that has arrived, and a payload is decoded from the
	// buffer in pieces of at most this size.
	readBufBytes = 64 << 10
)

// errBadFrame marks a frame that is not one: bad magic or an implausible
// length. The connection's read loop stops at it.
var errBadFrame = errors.New("msg: bad frame")

// TCP is the real-socket transport. One goroutine per accepted connection
// reads frames into a single receive channel, which is the Go expression of
// the paper's select-based first-come-first-served receive loop.
type TCP struct {
	rank  int
	epoch int
	reg   *registry.Registry
	ln    net.Listener

	recv chan arrival
	free freeList // released payload buffers, decoded into by the read loops

	mu     sync.Mutex
	peers  map[int]*peerConn
	closed bool
	// joined is closed and remade on every accepted connection, and closed
	// for good by Close: a higher rank waits on it for its peer to dial.
	joined chan struct{}
	wg     sync.WaitGroup
}

// arrival is one item of a TCP transport's receive queue: a frame, or the
// error that ended a peer's connection.
type arrival struct {
	m   Message
	err error
}

type peerConn struct {
	conn net.Conn
	wmu  sync.Mutex // serializes frame writes and guards wbuf
	wbuf []byte     // the frames of one SendAll call, reused
}

// DialTimeout bounds how long Send waits for a peer to publish its address
// and accept the connection.
const DialTimeout = 10 * time.Second

// NewTCP opens a listener on the loopback interface, publishes its address
// in the shared registry under (epoch, rank), and starts accepting peers.
func NewTCP(rank, epoch int, reg *registry.Registry) (*TCP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("msg: rank %d listen: %w", rank, err)
	}
	if err := reg.Publish(epoch, rank, ln.Addr().String()); err != nil {
		ln.Close()
		return nil, err
	}
	t := &TCP{
		rank:   rank,
		epoch:  epoch,
		reg:    reg,
		ln:     ln,
		recv:   make(chan arrival, queueCap),
		free:   make(freeList, freeCap),
		peers:  make(map[int]*peerConn),
		joined: make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Rank returns the transport's rank (useful after restoring from a dump).
func (t *TCP) Rank() int { return t.rank }

// Addr returns the listening address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Handshake: the dialer announces its rank.
		var hello [4]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			conn.Close()
			continue
		}
		from := int(binary.LittleEndian.Uint32(hello[:]))
		pc := &peerConn{conn: conn}
		t.mu.Lock()
		if old, ok := t.peers[from]; ok {
			old.conn.Close()
		}
		t.peers[from] = pc
		closed := t.closed
		if !closed {
			close(t.joined)
			t.joined = make(chan struct{})
		}
		t.mu.Unlock()
		if closed {
			conn.Close()
			return
		}
		t.wg.Add(1)
		go t.readLoop(conn, from)
	}
}

// readLoop queues the frames arriving from peer on conn. The error that
// ends the connection — EOF, a reset, a bad frame — is queued behind them
// as ErrPeerLost, unless this transport is closing or conn is no longer
// the peer's connection.
func (t *TCP) readLoop(conn net.Conn, peer int) {
	defer t.wg.Done()
	fr := newFrameReader(conn)
	fr.free = t.free
	for {
		m, err := fr.next()
		t.mu.Lock()
		closed := t.closed
		if err != nil {
			pc := t.peers[peer]
			closed = closed || pc == nil || pc.conn != conn
		}
		t.mu.Unlock()
		if closed {
			return
		}
		if err != nil {
			t.recv <- arrival{Message{From: peer, To: t.rank},
				fmt.Errorf("msg: rank %d lost rank %d: %w: %w", t.rank, peer, ErrPeerLost, err)}
			return
		}
		m.To = t.rank
		t.recv <- arrival{m: m}
	}
}

// dial returns the connection to a peer, establishing it on first use.
// To keep exactly one bidirectional channel per pair (the paper's FIFO
// channel), the lower rank dials and the higher rank waits for the
// incoming connection; without the tie-break, simultaneous cross-dials
// race and one side's connection gets torn down mid-message.
func (t *TCP) dial(to int) (*peerConn, error) {
	t.mu.Lock()
	if pc, ok := t.peers[to]; ok {
		t.mu.Unlock()
		return pc, nil
	}
	t.mu.Unlock()

	if t.rank > to {
		// The peer dials us; wait for its connection to be accepted.
		deadline := time.NewTimer(DialTimeout)
		defer deadline.Stop()
		for {
			t.mu.Lock()
			pc, ok := t.peers[to]
			closed, joined := t.closed, t.joined
			t.mu.Unlock()
			if closed {
				return nil, ErrClosed
			}
			if ok {
				return pc, nil
			}
			select {
			case <-joined:
			case <-deadline.C:
				return nil, fmt.Errorf("msg: rank %d: no connection from rank %d within %v", t.rank, to, DialTimeout)
			}
		}
	}

	addr, err := t.reg.Lookup(t.epoch, to, DialTimeout)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("msg: rank %d dial rank %d: %w", t.rank, to, err)
	}
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(t.rank))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("msg: rank %d handshake with %d: %w", t.rank, to, err)
	}
	pc := &peerConn{conn: conn}
	t.mu.Lock()
	t.peers[to] = pc
	closed := t.closed
	t.mu.Unlock()
	if closed {
		conn.Close()
		return nil, ErrClosed
	}
	// Read responses arriving on the dialed connection too.
	t.wg.Add(1)
	go t.readLoop(conn, to)
	return pc, nil
}

// Send frames and writes m to rank m.To, dialing on first use.
func (t *TCP) Send(m Message) error {
	return t.SendAll([]Message{m})
}

// SendAll frames ms and writes every destination's frames, in their order
// in ms, with one write on that peer's connection, dialing on first use.
// Peers are written in the order they first appear in ms.
func (t *TCP) SendAll(ms []Message) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
next:
	for i := range ms {
		to := ms[i].To
		for _, m := range ms[:i] {
			if m.To == to {
				continue next // written with the peer's first message
			}
		}
		if err := t.write(to, ms[i:]); err != nil {
			return err
		}
	}
	return nil
}

// write sends the frames of the messages in ms addressed to rank to with
// one write on that peer's connection.
func (t *TCP) write(to int, ms []Message) error {
	if to == t.rank {
		return t.loopback(ms)
	}
	pc, err := t.dial(to)
	if err != nil {
		return err
	}
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	pc.wbuf = pc.wbuf[:0]
	for _, m := range ms {
		if m.To == to {
			m.From = t.rank
			pc.wbuf = appendFrame(pc.wbuf, m)
		}
	}
	if _, err := pc.conn.Write(pc.wbuf); err != nil {
		return fmt.Errorf("msg: rank %d write to rank %d: %w: %w", t.rank, to, ErrPeerLost, err)
	}
	return nil
}

// loopback queues the messages in ms addressed to this transport's own
// rank, its neighbour across a periodic axis with one box, on its receive
// queue, each copied into a buffer from the free list.
func (t *TCP) loopback(ms []Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	t.wg.Add(1) // Close closes t.recv only after Done
	t.mu.Unlock()
	defer t.wg.Done()
	for _, m := range ms {
		if m.To == t.rank {
			m.From, m.Data = t.rank, append(t.free.take(len(m.Data)), m.Data...)
			t.recv <- arrival{m: m}
		}
	}
	return nil
}

// Recv blocks until any peer delivers a message (FCFS) or a peer is lost.
func (t *TCP) Recv() (Message, error) {
	a, ok := <-t.recv
	if !ok {
		return Message{}, ErrClosed
	}
	return a.m, a.err
}

// Release puts a received payload on the free list the read loops decode
// into.
func (t *TCP) Release(data []float64) { t.free.put(data) }

// Close unpublishes the address, closes the listener and all connections,
// and releases blocked receivers. It is the "close their TCP/IP
// communication channels" step of the migration protocol.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.joined)
	peers := t.peers
	t.peers = map[int]*peerConn{}
	t.mu.Unlock()

	t.reg.Unpublish(t.epoch, t.rank)
	t.ln.Close()
	for _, pc := range peers {
		pc.conn.Close()
	}
	t.wg.Wait()
	close(t.recv)
	return nil
}

// appendFrame appends m's frame, a fixed header plus float64 payload, to
// buf and returns the extended buffer.
func appendFrame(buf []byte, m Message) []byte {
	n := len(buf)
	size := headerBytes + 8*len(m.Data)
	buf = slices.Grow(buf, size)[:n+size]
	f := buf[n:]
	binary.LittleEndian.PutUint32(f[0:], frameMagic)
	binary.LittleEndian.PutUint32(f[4:], uint32(m.From))
	binary.LittleEndian.PutUint32(f[8:], uint32(int32(m.Step)))
	binary.LittleEndian.PutUint32(f[12:], uint32(int32(m.Phase)))
	binary.LittleEndian.PutUint32(f[16:], uint32(int32(m.Dir)))
	binary.LittleEndian.PutUint32(f[20:], uint32(len(m.Data)))
	p := f[headerBytes:]
	for i, v := range m.Data {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(v))
	}
	return buf
}

// frameReader decodes the frames arriving on one connection. Reads go
// through a buffer, so one read usually takes in every frame that has
// arrived; the header is copied into an array the reader owns and the
// payload is decoded straight out of the buffer into a payload buffer
// from free (which may be nil: then every payload is a new one).
type frameReader struct {
	r    *bufio.Reader
	hdr  [headerBytes]byte
	free freeList
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, readBufBytes)}
}

// next decodes one frame into a released payload buffer when the next one
// on the free list holds it. Otherwise the payload is a new one, and it
// grows with the bytes that have arrived, one read buffer's worth at a
// time: a header declaring more values than follow costs at most one read
// buffer. A released buffer is never grown.
func (fr *frameReader) next() (Message, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return Message{}, err
	}
	hdr := fr.hdr[:]
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != frameMagic {
		return Message{}, fmt.Errorf("%w: magic %#x", errBadFrame, magic)
	}
	m := Message{
		From:  int(binary.LittleEndian.Uint32(hdr[4:])),
		Step:  int(int32(binary.LittleEndian.Uint32(hdr[8:]))),
		Phase: int(int32(binary.LittleEndian.Uint32(hdr[12:]))),
		Dir:   int(int32(binary.LittleEndian.Uint32(hdr[16:]))),
	}
	n := int(binary.LittleEndian.Uint32(hdr[20:]))
	if n < 0 || n > maxValues {
		return Message{}, fmt.Errorf("%w: implausible payload length %d", errBadFrame, n)
	}
	const chunk = readBufBytes / 8
	if m.Data = fr.free.take(n); m.Data == nil {
		m.Data = make([]float64, 0, min(n, chunk))
	}
	for len(m.Data) < n {
		k := min(n-len(m.Data), chunk)
		p, err := fr.r.Peek(8 * k)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return Message{}, err
		}
		for ; len(p) > 0; p = p[8:] {
			m.Data = append(m.Data, math.Float64frombits(binary.LittleEndian.Uint64(p)))
		}
		_, _ = fr.r.Discard(8 * k) // cannot fail: Peek has buffered these bytes
	}
	return m, nil
}
