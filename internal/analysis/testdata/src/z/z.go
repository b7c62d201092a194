// Package z sits between x and y outside every scope: it is not
// analyzed, so it neither reports what x stored nor stores itself.
package z

import "x"

func Z() { x.X() }
