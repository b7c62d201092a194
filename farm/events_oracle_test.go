package farm

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// oracleString is each event's String as it was written with fmt: the
// frozen reference the strconv renderings in events.go must equal byte
// for byte, so a recorded trace keeps every byte.
func oracleString(ev Event) string {
	switch e := ev.(type) {
	case JobQueued:
		return fmt.Sprintf("t=%v queued %s", e.T, e.ID)
	case JobPlaced:
		return fmt.Sprintf("t=%v placed %s on [%s] step=%.6gs finish=%v weighted=%v",
			e.T, e.ID, strings.Join(e.Hosts, " "), e.StepSec, e.Finish, e.Weighted)
	case JobBackfilled:
		return fmt.Sprintf("t=%v backfilled %s on [%s] step=%.6gs finish=%v weighted=%v",
			e.T, e.ID, strings.Join(e.Hosts, " "), e.StepSec, e.Finish, e.Weighted)
	case JobPreempted:
		return fmt.Sprintf("t=%v preempted %s remaining=%.6g", e.T, e.ID, e.Remaining)
	case JobMigrated:
		parts := make([]string, len(e.Ranks))
		for i, r := range e.Ranks {
			parts[i] = fmt.Sprintf("%d>%s", r, e.Hosts[i])
		}
		return fmt.Sprintf("t=%v migrated %s [%s] step=%.6gs finish=%v",
			e.T, e.ID, strings.Join(parts, " "), e.StepSec, e.Finish)
	case JobFinished:
		return fmt.Sprintf("t=%v finished %s wait=%v served=%v preempts=%d migr=%d",
			e.T, e.ID, e.Job.Wait(), e.Job.Served, e.Job.Preemptions, e.Job.Migrations)
	case JobResized:
		return fmt.Sprintf("t=%v resized %s %d>%d on [%s] step=%.6gs finish=%v",
			e.T, e.ID, e.From, e.To, strings.Join(e.Hosts, " "), e.StepSec, e.Finish)
	case AutoscaleDecision:
		return fmt.Sprintf("t=%v autoscale %s %s %d>%d reason=%q",
			e.T, e.Action, e.ID, e.From, e.To, e.Reason)
	case HostReclaimed:
		return fmt.Sprintf("t=%v reclaimed %s owner=%q", e.T, e.Host, e.Owner)
	case CheckpointSaved:
		return fmt.Sprintf("t=%v checkpoint %s jobs=%d", e.T, e.Gen, e.Jobs)
	case EASYDegraded:
		return fmt.Sprintf("t=%v easy-degraded head=%s ranks=%d", e.T, e.Head, e.Ranks)
	}
	panic(fmt.Sprintf("oracleString: unknown event %T", ev))
}

// FuzzEventString builds every event kind from one input and requires
// each String to equal its fmt rendering. The ranks bytes give
// JobMigrated its ranks (as signed bytes) and every host list its
// length, so one input covers empty, single and long placements. The
// seed corpus under testdata/fuzz/FuzzEventString holds the edges:
// zero, negative, sub-microsecond and extreme durations, floats %.6g
// prints with an exponent, -0, ±Inf and NaN, and empty, non-ASCII,
// invalid-UTF-8 and quote-bearing strings.
func FuzzEventString(f *testing.F) {
	f.Fuzz(func(t *testing.T, at, d int64, x float64, id, text string, ranks []byte, flag bool) {
		T, D := time.Duration(at), time.Duration(d)
		rs := make([]int, len(ranks))
		hosts := make([]string, len(ranks))
		for i, r := range ranks {
			rs[i] = int(int8(r))
			hosts[i] = id
			if r%2 == 1 {
				hosts[i] = text
			}
		}
		events := []Event{
			JobQueued{T: T, ID: id},
			JobPlaced{T: T, ID: id, Hosts: hosts, StepSec: x, Finish: D, Weighted: flag},
			JobBackfilled{T: T, ID: id, Hosts: hosts, StepSec: x, Finish: D, Weighted: !flag},
			JobPreempted{T: T, ID: id, Remaining: x},
			JobMigrated{T: T, ID: id, Ranks: rs, Hosts: hosts, StepSec: x, Finish: D},
			JobFinished{T: T, ID: id, Job: JobMetrics{Submit: D, FirstStart: T, Served: D,
				Preemptions: int(at), Migrations: int(d)}},
			JobResized{T: T, ID: id, From: int(at), To: int(d), Hosts: hosts, StepSec: x, Finish: D},
			AutoscaleDecision{T: T, ID: id, Action: text, From: int(d), To: len(ranks), Reason: text},
			HostReclaimed{T: T, Host: id, Owner: text},
			CheckpointSaved{T: T, Gen: id, Jobs: int(d)},
			EASYDegraded{T: T, Head: id, Ranks: int(at)},
		}
		for _, ev := range events {
			if got, want := ev.String(), oracleString(ev); got != want {
				t.Errorf("%T.String() = %q, want %q", ev, got, want)
			}
		}
	})
}
