package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/msg"
)

// stateCase is one job of the call matrix, put in a state before its ops.
type stateCase struct {
	j     *Job
	jp    *JobPrograms2D
	set   []*dump.State // the suspended states, or views of step 0
	shape decomp.Shape  // a lattice Resize can cut the job into
	hold  *stepHold
	gate  chan struct{} // closed: the ranks receive
}

// TestJobStateMatrix calls every op of a job in each of its six states,
// and after each op that succeeds, every op again (pairs of length 2).
// Each call either succeeds, leaves the job in the state the op names
// and lets it end in the serial run's bits, or returns ErrJobState and
// leaves the job in the state it found. None panics, waits out the
// job's wait timeout or leaves a goroutine behind (TestMain's leak
// check). Both jobs run with the filter off, so Resize can run.
func TestJobStateMatrix(t *testing.T) {
	const until, at = 12, 4 // the job's last step; the step held mid-run
	ops := []struct {
		name string
		do   func(c *stateCase) error
		to   jobState // the state after a success
	}{
		{"Start", func(c *stateCase) error { return c.j.Start() }, running},
		{"Snapshot", func(c *stateCase) error { _, err := c.j.Snapshot(); return err }, running},
		{"Suspend", func(c *stateCase) error {
			set, err := c.j.Suspend()
			if err == nil {
				c.set = set
			}
			return err
		}, suspended},
		{"MigrateRanks", func(c *stateCase) error { return c.j.MigrateRanks([]int{0}, nil) }, running},
		{"Resize", func(c *stateCase) error { return c.j.Resize(c.shape) }, running},
		{"WaitDone", func(c *stateCase) error { return c.j.WaitDone() }, finished},
		{"Shutdown", func(c *stateCase) error { c.j.Shutdown(); return nil }, closed},
		{"Resume", func(c *stateCase) error { return c.j.Resume(c.set) }, running},
	}
	pausing := []string{"Snapshot", "Suspend", "MigrateRanks", "Resize"}
	valid := map[jobState][]string{
		ready:     {"Start", "Shutdown", "Resume"},
		running:   append([]string{"WaitDone", "Shutdown"}, pausing...),
		finished:  append([]string{"WaitDone", "Shutdown"}, pausing...),
		suspended: {"Shutdown", "Resume"},
		failed:    {"Shutdown"},
		closed:    {"Shutdown"},
	}
	// reach puts a fresh job in state s.
	reach := func(t *testing.T, c *stateCase, s jobState) {
		t.Helper()
		var err error
		switch s {
		case running:
			err = c.j.Start()
		case suspended:
			if err = c.j.Start(); err == nil {
				c.hold.wait(c.j)
				c.set, err = c.j.Suspend()
			}
		case finished, closed:
			if err = c.j.Start(); err == nil {
				err = c.j.WaitDone()
			}
			if s == closed {
				c.j.Shutdown()
			}
		case failed:
			// Every rank waits in its first receive, so no rank reaches
			// the sync step and the pause wait times out part-way.
			c.j.waitTimeout = time.Millisecond
			if err = c.j.Start(); err == nil {
				_, err = c.j.Suspend()
			}
			c.j.waitTimeout = 5 * time.Second
			if !errors.Is(err, ErrWorkerSilent) {
				t.Fatalf("a suspend over silent ranks: %v, want ErrWorkerSilent", err)
			}
			err = nil
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.j.state != s {
			t.Fatalf("the job is %s, want %s", c.j.state, s)
		}
	}
	// end runs the job to its last step where the state lets it, then
	// shuts it down, and reports whether it ran to the end.
	end := func(t *testing.T, c *stateCase) bool {
		t.Helper()
		defer c.j.Shutdown()
		var err error
		switch c.j.state {
		case ready:
			err = c.j.Start()
		case suspended:
			err = c.j.Resume(c.set)
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.j.state != running && c.j.state != finished {
			return false
		}
		if err := c.j.WaitDone(); err != nil {
			t.Fatal(err)
		}
		return true
	}
	jobs := []struct {
		name           string
		method         string
		jx, jy, gx, gy int
		shape          decomp.Shape
	}{
		{"FD2x1", MethodFD, 2, 1, 16, 8, decomp.Shape{X: []int{16}, Y: []int{4, 4}}},
		{"LB2x2", MethodLB, 2, 2, 24, 16, decomp.Shape{X: []int{8, 8, 8}, Y: []int{16}}},
	}
	for _, job := range jobs {
		cfg := func() *Config2D {
			cfg := channelConfig(t, job.method, job.jx, job.jy, job.gx, job.gy)
			cfg.Par.Eps = 0
			return cfg
		}
		ref, _, err := RunSequential2D(cfg(), until)
		if err != nil {
			t.Fatal(err)
		}
		// play puts a fresh job in state s and calls the ops in turn, each
		// checked against valid from the state the one before left, up to
		// the first refusal; then the job runs to its end where its state
		// lets it, in the serial run's bits.
		play := func(t *testing.T, s jobState, seq ...int) {
			c := &stateCase{shape: job.shape, gate: make(chan struct{})}
			if s != failed {
				close(c.gate)
			}
			if s == running || s == suspended {
				c.hold = newStepHold(at)
			} else {
				c.hold = newStepHold()
			}
			hub := HubFactory()
			c.j, c.jp = newTestJobOver(t, cfg(), until, c.hold.over(func(rank, epoch int) (msg.Transport, error) {
				tr, err := hub(rank, epoch)
				return heldTransport{tr, c.gate}, err
			}))
			c.j.waitTimeout = 5 * time.Second
			for _, p := range c.jp.progs {
				c.set = append(c.set, p.dump(0, 0, nil))
			}
			reach(t, c, s)

			if s == running {
				// A pausing op lets the held ranks go once its round is
				// announced; any other call finds them running on.
				if slices.Contains(pausing, ops[seq[0]].name) {
					c.hold.wait(c.j)
				} else {
					_, release := c.hold.held(c.j)
					close(release)
				}
			}
			for _, i := range seq {
				op, from := ops[i], c.j.state
				err := op.do(c)
				switch {
				case err == nil && !slices.Contains(valid[from], op.name):
					t.Errorf("%s on a %s job succeeded, want ErrJobState", op.name, from)
				case err == nil && c.j.state != op.to:
					t.Errorf("%s on a %s job left it %s, want %s", op.name, from, c.j.state, op.to)
				case err != nil && !errors.Is(err, ErrJobState):
					t.Errorf("%s on a %s job: %v, want nil or ErrJobState", op.name, from, err)
				case err != nil && slices.Contains(valid[from], op.name):
					t.Errorf("%s on a %s job refused: %v", op.name, from, err)
				case err != nil && c.j.state != from:
					t.Errorf("the refused %s moved a %s job to %s", op.name, from, c.j.state)
				}
				if err != nil {
					break
				}
			}
			if end(t, c) {
				if ok, x, y, d := resultsEqual(ref, c.jp.Gather(until), 0); !ok {
					t.Errorf("the job differs from the serial run at (%d,%d) by %g", x, y, d)
				}
			}
			if s == failed {
				close(c.gate)
			}
		}
		for _, s := range []jobState{ready, running, finished, suspended, failed, closed} {
			for i, op := range ops {
				t.Run(job.name+"/"+string(s)+"/"+op.name, func(t *testing.T) {
					play(t, s, i)
					if !slices.Contains(valid[s], op.name) {
						return
					}
					// Pairs: after an op that succeeds, each op again.
					for k, next := range ops {
						t.Run(next.name, func(t *testing.T) { play(t, s, i, k) })
					}
				})
			}
		}
	}
}
