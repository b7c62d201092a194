package kern

import "dep"

// Backward holds MuY across a call that acquires MuX — the opposite of
// dep's established order, visible only through the edges dep left in
// the run's lock graph.
func Backward() {
	dep.MuY.Lock()
	dep.GrabX() // want `call to dep\.GrabX acquires dep\.MuX while holding dep\.MuY, but dep\.BothForward \(.*\) acquires them in the opposite order`
	dep.MuY.Unlock()
}
