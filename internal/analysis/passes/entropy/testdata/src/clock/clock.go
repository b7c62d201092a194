// Package clock is entropy golden input (the old nodeterm question):
// ambient clock reads and global or crypto RNG draws in a
// deterministic-scope package.
package clock

import (
	crand "crypto/rand"
	mrand "math/rand"
	"time"
)

func clock() {
	_ = time.Now()               // want `time.Now reads the ambient wall clock`
	time.Sleep(time.Millisecond) // want `time.Sleep reads the ambient wall clock`
	_ = time.Since(time.Time{})  // want `time.Since reads the ambient wall clock`
	_ = time.After(time.Second)  // want `time.After reads the ambient wall clock`
	_ = time.Duration(5)         // durations are values, not clock reads
}

func globalRNG() {
	_ = mrand.Intn(10)     // want `rand.Intn draws from the process-global generator`
	mrand.Shuffle(0, nil)  // want `rand.Shuffle draws from the process-global generator`
	_, _ = crand.Read(nil) // want `crypto/rand.Read is irreproducible entropy`
}

// A generator over an explicit source that is not an RNG holds
// state the checkpoint cannot see.
func constructOverSource(src mrand.Source) {
	_ = mrand.New(src) // want `rand.New over a non-RNG source`
}

func allowed() {
	_ = time.Now() //detlint:allow entropy -- golden test: trailing directive suppresses this line

	//detlint:allow entropy -- golden test: directive above covers the next line
	_ = time.Now()
}

func malformed() {
	_ = time.Now() //detlint:allow entropy // want `detlint:allow needs a reason` `time.Now reads the ambient wall clock`
}

func unknownName() {
	//detlint:allow nodetermz -- typo in the analyzer name // want `unknown analyzer nodetermz`
	_ = time.Now() // want `time.Now reads the ambient wall clock`
}
