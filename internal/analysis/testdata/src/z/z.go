// Package z sits between x and y outside every scope: it is not
// analyzed, so it neither reports x's fact nor exports one of its own.
package z

import "x"

func Z() { x.X() }
