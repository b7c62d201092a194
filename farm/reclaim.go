package farm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// handleReclaims drains the cluster's host event stream and vacates every
// reserved host whose regular user came back: the displaced ranks migrate
// to replacement hosts through the section-5.1 dump/rebuild path and the
// job is repriced on its new placement, or — when no replacements are
// reservable — the whole job is suspended and requeued. Either way the
// farm never squats beside a returned user.
func (f *Farm) handleReclaims(t time.Duration) error {
	for _, ev := range f.cluster.DrainEvents() {
		if ev.Kind == cluster.EventReclaim {
			f.reclaims++
			f.emit(HostReclaimed{T: ev.At - f.start, Host: ev.Host.Name, Owner: ev.Owner})
		}
	}
	busy := f.cluster.NeedsMigration(f.migration)
	if len(busy) == 0 {
		return nil
	}
	// A fallback suspension deletes the job from f.running in place, and
	// the next job then stands at the same index.
	for i := 0; i < len(f.running); {
		js := f.running[i]
		f.owned = f.owned[:0]
		for _, h := range busy {
			if h.Owner() == js.spec.ID {
				f.owned = append(f.owned, h)
			}
		}
		if len(f.owned) > 0 {
			if err := f.migrateOff(js, f.owned, t); err != nil {
				return err
			}
		}
		if i < len(f.running) && f.running[i] == js {
			i++
		}
	}
	return nil
}

// migrateOff moves a running job's displaced ranks off the busy hosts and
// reprices the job on the patched placement; without replacement capacity
// it falls back to suspending the whole job.
func (f *Farm) migrateOff(js *jobState, busy []*cluster.Host, t time.Duration) error {
	ranks, repl, err := f.cluster.Migrate(js.res, busy, f.selection, f.rng)
	if errors.Is(err, cluster.ErrShortfall) {
		// Not enough reservable hosts to rehost the displaced ranks: the
		// job checkpoints off the pool entirely and waits in the queue.
		return f.preempt(js, t)
	}
	if err != nil {
		return fmt.Errorf("farm: migrating %s: %w", js.spec.ID, err)
	}
	// Progress so far ran at the old placement's pace; credit it before
	// the new estimate replaces StepSec.
	f.settle(js, t)
	if err := js.work.Migrate(ranks, repl); err != nil {
		return fmt.Errorf("farm: migrating %s: %w", js.spec.ID, err)
	}
	// The weighted shape was fixed when the job first dumped; reprice the
	// same geometry on the patched placement.
	sec, err := f.price(js.espec(), js.shape, js.res.Hosts)
	if err != nil {
		return err
	}
	imb, err := Imbalance(js.espec(), js.shape, js.res.Hosts)
	if err != nil {
		return err
	}
	js.Imbalance = imb
	js.StepSec = sec
	js.retime(t)
	js.Migrations += len(ranks)
	js.Repricings++
	f.emit(JobMigrated{T: t, ID: js.spec.ID, Ranks: append([]int(nil), ranks...),
		Hosts: hostNames(repl), StepSec: sec, Finish: js.FinishAt})
	return nil
}
