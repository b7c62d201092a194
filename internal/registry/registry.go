// Package registry implements the shared-file port registry of section 4.2:
// "each process must first allocate its port numbers for listening to its
// neighbors, and then write the port numbers into a shared file. The
// neighbors must read the shared file before they can connect using
// TCP/IP."
//
// The paper relies on the workstations' common (NFS) file system; here the
// shared directory is any path visible to all workers (for the reproduction,
// a local directory shared by processes on one machine). Entries are
// written atomically (write to a temporary file, then rename) so a reader
// never observes a half-written address, and are namespaced by epoch so
// that the re-opening of channels after a migration (section 5.1) cannot
// confuse stale addresses with fresh ones.
package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// pollInterval is the interval between lookup retries.
const pollInterval = 2 * time.Millisecond

// Registry is a shared-directory address registry.
type Registry struct {
	Dir string
}

// New creates (if needed) and wraps a shared registry directory.
func New(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return &Registry{Dir: dir}, nil
}

func (r *Registry) path(epoch, rank int) string {
	return filepath.Join(r.Dir, fmt.Sprintf("ep%04d-rank%04d.addr", epoch, rank))
}

// Publish records the network address of a rank for the given epoch.
// The write is atomic: concurrent readers see either nothing or the full
// address.
func (r *Registry) Publish(epoch, rank int, addr string) error {
	tmp, err := os.CreateTemp(r.Dir, ".tmp-addr-*")
	if err != nil {
		return fmt.Errorf("registry: publish rank %d: %w", rank, err)
	}
	name := tmp.Name()
	if _, err := tmp.WriteString(addr + "\n"); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("registry: publish rank %d: %w", rank, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("registry: publish rank %d: %w", rank, err)
	}
	if err := os.Rename(name, r.path(epoch, rank)); err != nil {
		os.Remove(name)
		return fmt.Errorf("registry: publish rank %d: %w", rank, err)
	}
	return nil
}

// Lookup polls until the address of (epoch, rank) appears or the timeout
// elapses.
func (r *Registry) Lookup(epoch, rank int, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		data, err := os.ReadFile(r.path(epoch, rank))
		if err == nil {
			return strings.TrimSpace(string(data)), nil
		}
		if !os.IsNotExist(err) {
			return "", fmt.Errorf("registry: lookup rank %d: %w", rank, err)
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("registry: rank %d epoch %d not published within %v", rank, epoch, timeout)
		}
		time.Sleep(pollInterval)
	}
}

// Unpublish removes a rank's entry; missing entries are not an error.
func (r *Registry) Unpublish(epoch, rank int) error {
	err := os.Remove(r.path(epoch, rank))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("registry: unpublish rank %d: %w", rank, err)
	}
	return nil
}
