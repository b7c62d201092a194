// Package syncfile implements the shared-file synchronization algorithm of
// appendix B, used before process migration:
//
//	"In response to the request, every process writes the current
//	integration time step into a shared file (using file locking
//	semaphores, and append mode). Then, every process examines the shared
//	file to find the largest integration time step T_max among all the
//	processes. Further, every process chooses (T_max + 1) to be the
//	upcoming synchronization time step, and continues running until it
//	reaches this time step."
//
// Announce appends one line per process; O_APPEND makes small concurrent
// appends atomic on POSIX file systems, which plays the role of the paper's
// file-locking semaphores. Rounds are separate files so that consecutive
// migrations never read stale announcements.
package syncfile

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// pollInterval is the interval between WaitAll retries, which is how a
// waiter hears announcers in other processes.
const pollInterval = 2 * time.Millisecond

// Sync coordinates synchronization rounds through a shared directory.
type Sync struct {
	Dir string

	// bell is closed by the next Announce, so a round among in-process
	// ranks ends on its last announcement; nil until a waiter takes it.
	mu   sync.Mutex
	bell chan struct{}
}

// New creates the shared directory if needed.
func New(dir string) (*Sync, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("syncfile: %w", err)
	}
	return &Sync{Dir: dir}, nil
}

func (s *Sync) path(round int) string {
	return filepath.Join(s.Dir, fmt.Sprintf("sync-%06d", round))
}

// Announce appends this process's current integration step to the round's
// shared file.
func (s *Sync) Announce(round, rank, step int) error {
	f, err := os.OpenFile(s.path(round), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("syncfile: announce: %w", err)
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "%d %d\n", rank, step); err != nil {
		return fmt.Errorf("syncfile: announce: %w", err)
	}
	s.mu.Lock()
	if s.bell != nil {
		close(s.bell)
		s.bell = nil
	}
	s.mu.Unlock()
	return nil
}

// ReadRound returns the announced steps by rank for a round; partially
// announced rounds return the subset seen so far.
func (s *Sync) ReadRound(round int) (map[int]int, error) {
	f, err := os.Open(s.path(round))
	if os.IsNotExist(err) {
		return map[int]int{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("syncfile: read: %w", err)
	}
	defer f.Close()
	out := map[int]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rank, step int
		if _, err := fmt.Sscanf(line, "%d %d", &rank, &step); err != nil {
			return nil, fmt.Errorf("syncfile: bad line %q: %w", line, err)
		}
		out[rank] = step
	}
	return out, sc.Err()
}

// WaitAll re-reads the round until p processes have announced, then returns
// the chosen synchronization step T_max + 1: the smallest step every process
// can still reach (no process may already be past it, by the
// un-synchronization bound of appendix A). It re-reads when an in-process
// Announce rings the bell, or after pollInterval.
func (s *Sync) WaitAll(round, p int, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		// Take the bell before reading, so an announcement that lands
		// after the read still wakes this waiter.
		s.mu.Lock()
		if s.bell == nil {
			s.bell = make(chan struct{})
		}
		bell := s.bell
		s.mu.Unlock()
		steps, err := s.ReadRound(round)
		if err != nil {
			return 0, err
		}
		if len(steps) >= p {
			tmax := 0
			for _, st := range steps {
				if st > tmax {
					tmax = st
				}
			}
			return tmax + 1, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("syncfile: round %d: %d of %d processes announced within %v",
				round, len(steps), p, timeout)
		}
		select {
		case <-bell:
		case <-time.After(pollInterval):
		}
	}
}

// SyncStep announces and waits in one call; every process of a round calls
// it and they all return the same synchronization step.
func (s *Sync) SyncStep(round, rank, step, p int, timeout time.Duration) (int, error) {
	if err := s.Announce(round, rank, step); err != nil {
		return 0, err
	}
	return s.WaitAll(round, p, timeout)
}

// Clear removes a completed round's file.
func (s *Sync) Clear(round int) error {
	err := os.Remove(s.path(round))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("syncfile: clear: %w", err)
	}
	return nil
}
