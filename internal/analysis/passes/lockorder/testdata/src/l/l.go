package l

type Mutex struct{}

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}

var a, b Mutex

func AB() {
	a.Lock()
	b.Lock() // want `^acquires l\.b while holding l\.a: every lock must be a leaf$`
	b.Unlock()
	a.Unlock()
}

func BA() {
	b.Lock()
	a.Lock() // want `^acquires l\.a while holding l\.b: every lock must be a leaf$`
	a.Unlock()
	b.Unlock()
}

type S struct {
	mu   Mutex
	next Mutex
}

// Fine and AlsoFine take the struct locks in the same order, which no
// longer makes them fine: next is taken under mu. A deferred Unlock
// holds mu to function end.
func (s *S) Fine() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next.Lock() // want `acquires l\.S\.next while holding l\.S\.mu`
	s.next.Unlock()
}

func (s *S) AlsoFine() {
	s.mu.Lock()
	s.next.Lock() // want `acquires l\.S\.next while holding l\.S\.mu`
	s.next.Unlock()
	s.mu.Unlock()
}

// Sequential acquisition after release holds one lock at a time.
func Sequential() {
	b.Lock()
	b.Unlock()
	a.Lock()
	a.Unlock()
}

// Local mutexes have no cross-function identity.
func Local() {
	var mu Mutex
	mu.Lock()
	a.Lock()
	a.Unlock()
	mu.Unlock()
}

var c, d Mutex

// HoldAcrossF holds d across f, and HoldAcrossG across g, which f and
// g reach through each other: both take c. Asking for f's locks first
// walks g while f is still open, so a memo of g would miss c.
func HoldAcrossF() {
	d.Lock()
	f(1) // want `call to l\.f acquires l\.c while holding l\.d`
	d.Unlock()
}

func HoldAcrossG() {
	d.Lock()
	g(1) // want `call to l\.g acquires l\.c while holding l\.d`
	d.Unlock()
}

func f(n int) {
	c.Lock()
	c.Unlock()
	if n > 0 {
		g(n - 1)
	}
}

func g(n int) { f(n) }
