// Package dep is the upstream half of the cross-package fixture: it
// establishes the MuX-before-MuY order in the run's lock graph.
package dep

type Mutex struct{}

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}

var MuX, MuY Mutex

func BothForward() {
	MuX.Lock()
	MuY.Lock()
	MuY.Unlock()
	MuX.Unlock()
}

func GrabX() {
	MuX.Lock()
	MuX.Unlock()
}
