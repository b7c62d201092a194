// Package x starts the facts round trip: it is in scope and exports a
// fact, and nothing before it does, so it reports nothing.
package x

func X() {}
