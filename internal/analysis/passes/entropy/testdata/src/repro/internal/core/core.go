// Package core stands in for repro/internal/core under the real
// analysis.Default() scopes. core was deterministic but outside the
// old goroutine scope, so a go statement there went unreported; under
// the one entropy scope each rank goroutine needs its reason.
package core

type Worker struct{}

func (w *Worker) Start(until int) {}

func start(workers []*Worker) {
	for _, w := range workers {
		//detlint:allow entropy -- golden test: rank goroutine, exchanges are rank-addressed
		go w.Start(10)
	}
	go workers[0].Start(10) // want `go statement on the deterministic step/decision path`
}
