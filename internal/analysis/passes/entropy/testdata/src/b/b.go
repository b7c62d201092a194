// Package b is outside the deterministic scope: the same clock reads,
// stray sources and go statements draw no findings.
package b

import (
	"math/rand"
	"time"
)

func clock() {
	_ = time.Now()
	time.Sleep(time.Millisecond)
	_ = rand.New(rand.NewSource(1))
	go clock()
}
