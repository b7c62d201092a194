// Package gostmt is entropy golden input (the old goentropy question):
// go statements in a deterministic-scope package.
package gostmt

func compute() {}

func step() {
	go compute() // want `go statement on the deterministic step/decision path`
}

func closures() {
	done := make(chan struct{})
	go func() { // want `go statement on the deterministic step/decision path`
		close(done)
	}()
	<-done
}

func allowedDrain(events chan int) {
	done := make(chan struct{})
	var seen []int
	//detlint:allow entropy -- drain preserves the channel's own order and is joined before seen is read
	go func() {
		defer close(done)
		for ev := range events {
			seen = append(seen, ev)
		}
	}()
	<-done
	_ = seen
}
