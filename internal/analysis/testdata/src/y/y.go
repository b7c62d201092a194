// Package y reaches x only through the unanalyzed z, and still sees
// what x stored. An entry from z would be a second, unexpected
// diagnostic.
package y // want `sees fact from x$`

import "z"

func Y() { z.Z() }
