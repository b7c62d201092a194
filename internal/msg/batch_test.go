package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"testing/iotest"
)

// recConn records what is written to it and how many writes it took. Only
// Write is ever called, so the embedded Conn stays nil.
type recConn struct {
	net.Conn
	buf    bytes.Buffer
	writes int
}

func (c *recConn) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

// wiredTCP is a rank-0 TCP transport whose connections to the given peers
// are recConns, so sends never touch a socket.
func wiredTCP(peers ...int) (*TCP, map[int]*recConn) {
	t := &TCP{rank: 0, peers: map[int]*peerConn{}}
	conns := map[int]*recConn{}
	for _, p := range peers {
		conns[p] = &recConn{}
		t.peers[p] = &peerConn{conn: conns[p]}
	}
	return t, conns
}

// mixedBatch goes to two peers, interleaved, with empty payloads among
// them.
func mixedBatch() []Message {
	return []Message{
		{To: 1, Step: 4, Phase: 0, Dir: 0, Data: []float64{1, 2, 3}},
		{To: 2, Step: 4, Phase: 0, Dir: 1, Data: []float64{-4.5}},
		{To: 1, Step: 4, Phase: 0, Dir: 2},
		{To: 2, Step: 4, Phase: 0, Dir: 3, Data: []float64{}},
		{To: 1, Step: 4, Phase: 0, Dir: 6, Data: []float64{math.Inf(-1), math.NaN(), 7}},
	}
}

// TestSendAllWiresWhatSendsWire: each peer's connection carries the same
// bytes whether a batch goes through SendAll or one Send per message.
func TestSendAllWiresWhatSendsWire(t *testing.T) {
	batch, batchConns := wiredTCP(1, 2)
	if err := batch.SendAll(mixedBatch()); err != nil {
		t.Fatal(err)
	}
	single, singleConns := wiredTCP(1, 2)
	for _, m := range mixedBatch() {
		if err := single.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []int{1, 2} {
		got, want := batchConns[p].buf.Bytes(), singleConns[p].buf.Bytes()
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("peer %d: SendAll wrote %d bytes, Sends %d, and they differ", p, len(got), len(want))
		}
	}
}

// TestSendAllOneWritePerPeer: a batch costs one write per distinct peer;
// one Send costs one write.
func TestSendAllOneWritePerPeer(t *testing.T) {
	tr, conns := wiredTCP(1, 2, 3)
	if err := tr.SendAll(mixedBatch()); err != nil {
		t.Fatal(err)
	}
	for p, want := range map[int]int{1: 1, 2: 1, 3: 0} {
		if got := conns[p].writes; got != want {
			t.Errorf("peer %d: %d writes for one SendAll, want %d", p, got, want)
		}
	}
	for i, m := range mixedBatch() {
		if err := tr.Send(m); err != nil {
			t.Fatal(err)
		}
		if got := conns[1].writes + conns[2].writes; got != 2+i+1 {
			t.Fatalf("after %d Sends: %d writes in all, want %d", i+1, got, 2+i+1)
		}
	}
}

// header returns a frame header declaring n payload values.
func header(n uint32) []byte {
	hdr := appendFrame(nil, Message{From: 3, Step: 1})
	binary.LittleEndian.PutUint32(hdr[20:], n)
	return hdr
}

// TestFrameReaderBoundsAllocation: a header that declares the largest
// accepted payload and is followed by nothing costs an error and the
// allocation of the bytes that did arrive plus one read buffer, not the
// half gigabyte the header asks for.
func TestFrameReaderBoundsAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := newFrameReader(bytes.NewReader(header(maxValues))).next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("a header declaring %d values, then EOF: %d bytes allocated", maxValues, grew)
	if grew >= 1<<20 {
		t.Errorf("a 24-byte header cost %d bytes of allocation, want < 1 MB", grew)
	}
	if _, err := newFrameReader(bytes.NewReader(header(maxValues + 1))).next(); !errors.Is(err, errBadFrame) {
		t.Errorf("oversized length: %v, want errBadFrame", err)
	}
}

// TestFrameReaderLargePayload: a payload several read buffers long,
// arriving in short reads, decodes exactly, and so does the frame behind it.
func TestFrameReaderLargePayload(t *testing.T) {
	big := make([]float64, 3*readBufBytes/8+5)
	for i := range big {
		big[i] = float64(i) - 0.25
	}
	wire := appendFrame(nil, Message{From: 1, Step: 2, Data: big})
	wire = appendFrame(wire, Message{From: 1, Step: 3, Data: []float64{9}})
	fr := newFrameReader(iotest.HalfReader(bytes.NewReader(wire)))
	m, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != len(big) {
		t.Fatalf("decoded %d values, want %d", len(m.Data), len(big))
	}
	for i := range big {
		if m.Data[i] != big[i] {
			t.Fatalf("value %d = %v, want %v", i, m.Data[i], big[i])
		}
	}
	if m, err = fr.next(); err != nil || m.Step != 3 || len(m.Data) != 1 || m.Data[0] != 9 {
		t.Errorf("frame after the large one: %+v, %v", m, err)
	}
}

// FuzzReadFrame: any byte stream decodes to frames that re-encode to a
// prefix of it, then stops with io.EOF, io.ErrUnexpectedEOF or
// errBadFrame; it never panics. Each payload is released back to the
// reader's free list once re-encoded, so later frames decode into
// recycled buffers. The seed corpus is in testdata/fuzz/FuzzReadFrame:
// frames with and without payload, bad magic, lengths at, past and far
// past the limit, and truncations.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		fr := newFrameReader(bytes.NewReader(in))
		fr.free = make(freeList, freeCap)
		var again []byte
		for {
			m, err := fr.next()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errBadFrame) {
					t.Fatalf("untyped error %v", err)
				}
				break
			}
			again = appendFrame(again, m)
			fr.free.put(m.Data)
		}
		if !bytes.HasPrefix(in, again) {
			t.Fatalf("decoded frames re-encode to %x, not a prefix of the input", again)
		}
	})
}
