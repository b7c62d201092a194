// Package dep is the upstream half of the cross-package fixture: its
// summary of GrabX is what kern's call is checked against.
package dep

type Mutex struct{}

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}

var MuX, MuY Mutex

func BothForward() {
	MuX.Lock()
	MuY.Lock() // want `acquires dep\.MuY while holding dep\.MuX`
	MuY.Unlock()
	MuX.Unlock()
}

func GrabX() {
	MuX.Lock()
	MuX.Unlock()
}
