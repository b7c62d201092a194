// Package x starts the round trip: it is in scope and stores itself in
// the shared value, and nothing before it does, so it reports nothing.
package x

func X() {}
