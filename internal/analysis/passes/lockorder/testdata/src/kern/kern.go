package kern

import "dep"

// Backward holds MuY across a call that acquires MuX, which only dep's
// summary of GrabX, kept for the run, shows.
func Backward() {
	dep.MuY.Lock()
	dep.GrabX() // want `^call to dep\.GrabX acquires dep\.MuX while holding dep\.MuY: every lock must be a leaf$`
	dep.MuY.Unlock()
}
