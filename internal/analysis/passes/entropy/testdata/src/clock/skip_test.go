// Test files are exempt: wall-clock timeouts in tests do not touch
// the shipped simulation path.
package clock

import "time"

func waitInTest() {
	_ = time.Now()
	time.Sleep(time.Millisecond)
}
