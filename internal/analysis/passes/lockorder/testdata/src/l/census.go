package l

// Farm is census mutant L1. Submit releases hmu on its duplicate's
// early return, then holds hmu across submit, which takes mu; Drain
// takes hmu under mu.
type Farm struct {
	mu, hmu Mutex
	jobs    map[string]bool
}

func (f *Farm) submit() {
	f.mu.Lock()
	f.mu.Unlock()
}

func (f *Farm) Submit(id string) bool {
	f.hmu.Lock()
	if f.jobs[id] {
		f.hmu.Unlock()
		return false
	}
	f.jobs[id] = true
	f.submit() // want `^call to l\.Farm\.submit acquires l\.Farm\.mu while holding l\.Farm\.hmu: every lock must be a leaf$`
	f.hmu.Unlock()
	return true
}

func (f *Farm) Drain() {
	f.mu.Lock()
	f.hmu.Lock() // want `acquires l\.Farm\.hmu while holding l\.Farm\.mu`
	f.hmu.Unlock()
	f.mu.Unlock()
}

// TCP is census mutant L2. write reads closed under mu while holding a
// peer's wmu; Close, past its early return, locks each wmu under mu.
type TCP struct {
	mu     Mutex
	closed bool
	peers  []*peerConn
}

type peerConn struct {
	wmu Mutex
}

func (t *TCP) write(pc *peerConn) bool {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	t.mu.Lock() // want `acquires l\.TCP\.mu while holding l\.peerConn\.wmu`
	closed := t.closed
	t.mu.Unlock()
	return closed
}

func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	for _, pc := range t.peers {
		pc.wmu.Lock() // want `acquires l\.peerConn\.wmu while holding l\.TCP\.mu`
		pc.wmu.Unlock()
	}
	t.mu.Unlock()
}

// acceptLoop is census mutant L3, with write's half of L2: a peer
// that reconnects replaces the old connection, which is closed under
// its wmu while t.mu is held.
func (t *TCP) acceptLoop(i int, pc *peerConn) {
	t.mu.Lock()
	old := t.peers[i]
	t.peers[i] = pc
	old.wmu.Lock() // want `acquires l\.peerConn\.wmu while holding l\.TCP\.mu`
	old.wmu.Unlock()
	t.mu.Unlock()
}

// Relock takes a mutex it already holds: a deadlock on its own,
// directly or through a call.
func (f *Farm) Relock() {
	f.mu.Lock()
	f.mu.Lock() // want `acquires l\.Farm\.mu while holding l\.Farm\.mu`
	f.submit()  // want `call to l\.Farm\.submit acquires l\.Farm\.mu while holding l\.Farm\.mu`
	f.mu.Unlock()
}
