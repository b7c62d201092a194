// Package leakcheck fails a test binary whose goroutines outlive its tests.
// A package's TestMain calls Main; it needs nothing beyond the standard
// library.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and, when they pass, waits up to five seconds for
// every goroutine with a frame in this module to end. The shared pool's
// workers (internal/pool) live for the process by design and are exempt.
// Any other goroutine left is printed with its stack, and the binary fails.
func Main(m *testing.M) {
	code := m.Run()
	for deadline := time.Now().Add(5 * time.Second); code == 0; time.Sleep(10 * time.Millisecond) {
		left := running()
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests:\n\n%s\n",
				len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// running returns the stacks of the goroutines, this one aside, that have a
// frame in the module and were not started by the shared pool.
func running() (left []string) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // [0] is this one
		if strings.Contains(g, "repro/") && !strings.Contains(g, "created by repro/internal/pool.") {
			left = append(left, g)
		}
	}
	return left
}
