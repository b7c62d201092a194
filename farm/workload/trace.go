package workload

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/farm"
	"repro/farm/autoscale"
	"repro/internal/perf"
)

// Trace file identification. A trace is self-describing: Format names
// the schema family and Version its revision, and readers reject
// anything they do not understand instead of misparsing it.
const (
	TraceFormat  = "farm-workload-trace"
	TraceVersion = 1
	// TraceMinor is the revision within TraceVersion this build writes
	// when it needs to. Minor 1 adds malleability: an autoscaler plan in
	// the header and resize/autoscale events in the stream. Traces
	// without either still serialize as plain v1 (minor omitted), so
	// recorded pins from older builds stay byte-identical; v1.0 traces
	// that nevertheless contain resize events are rejected as corrupt
	// rather than silently diverging on replay.
	TraceMinor = 1
)

// Trace sentinels, checkable with errors.Is.
var (
	// ErrBadTrace: the trace is unreadable — wrong format or version,
	// or it names no known timer.
	ErrBadTrace = errors.New("unsupported trace")
	// ErrTraceDiverged: a Verify re-run produced a different event
	// stream than the trace recorded.
	ErrTraceDiverged = errors.New("trace diverged")
)

// Trace is one recorded farm run, v1: the full scheduling decision
// stream (the farm.SubscribeBuffered surface, one stable String line per
// event) together with everything needed to reproduce it — the job
// list, the scheduling knobs, the cluster-side scenario and the
// checkpoint grid. Durations serialize as nanoseconds.
//
// Verify re-runs the recorded configuration on a fresh quiet paper pool
// and asserts the stream is byte-identical — the regression pin. A
// timer is a function, so the trace carries its name (TimerCompute,
// TimerPerfEthernet), not a value; checkpoint directories are
// operator-local and deliberately absent (event String forms omit them
// too), so Verify checkpoints into a throwaway directory on the
// recorded virtual-time grid.
type Trace struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Minor is the revision within Version (see TraceMinor); 0 is the
	// original v1 schema.
	Minor int    `json:"minor,omitempty"`
	Name  string `json:"name"`

	Seed            int64          `json:"seed"`
	Policy          string         `json:"policy"`
	Backfill        string         `json:"backfill"`
	Timer           string         `json:"timer,omitempty"`
	CheckpointEvery time.Duration  `json:"checkpoint_every,omitempty"`
	CheckpointGap   time.Duration  `json:"checkpoint_gap,omitempty"`
	Scenario        *Scenario      `json:"scenario,omitempty"`
	Autoscale       *AutoscalePlan `json:"autoscale,omitempty"`

	Jobs   []farm.JobSpec `json:"jobs"`
	Events []string       `json:"events"`
}

// AutoscalePlan is the declarative form of the farm/autoscale control
// loop, so an autoscaled run rides in a trace as pure data the way a
// Scenario does: Every is the control-tick grid, the policy knobs are
// SupplyDemand's, Confirm and Cooldown the Engine's smoothing. Compile
// builds a fresh Engine per run — the engine is stateful, so a plan is
// never shared between runs.
type AutoscalePlan struct {
	Every     time.Duration `json:"every"`
	Spare     int           `json:"spare,omitempty"`
	Chunk     int           `json:"chunk,omitempty"`
	MaxFactor float64       `json:"max_factor,omitempty"`
	Confirm   int           `json:"confirm,omitempty"`
	Cooldown  time.Duration `json:"cooldown,omitempty"`
}

// Compile turns the plan into the farm option wiring a fresh engine.
func (p *AutoscalePlan) Compile() (farm.Option, error) {
	if p.Every <= 0 {
		return nil, fmt.Errorf("workload: %w: autoscale tick %v is not positive", farm.ErrInvalidSpec, p.Every)
	}
	eng := &autoscale.Engine{
		Policy: autoscale.SupplyDemand{
			Spare: p.Spare, Chunk: p.Chunk, MaxFactor: p.MaxFactor,
		},
		Confirm:  p.Confirm,
		Cooldown: p.Cooldown,
	}
	return eng.Option(p.Every), nil
}

// RunConfig is the knob set of one recorded or verified run. The zero
// value is the farm's defaults: seed 0, FIFO, EASY backfill, the
// compute-only timer, no checkpointing. Every run starts on the quiet
// paper pool (see build).
type RunConfig struct {
	Seed     int64
	Policy   farm.Policy
	Backfill farm.BackfillMode
	// Timer is a timer name (TimerCompute, TimerPerfEthernet); empty
	// means TimerCompute.
	Timer string
	// CheckpointEvery arms periodic checkpointing into CheckpointDir
	// (Record requires a directory when the interval is set; Verify
	// supplies its own throwaway directory). The interval is recorded in
	// the trace: CheckpointSaved events sit on its virtual-time grid.
	CheckpointEvery time.Duration
	CheckpointGap   time.Duration
	CheckpointDir   string
	// Autoscale, when non-nil, attaches the supply/demand control loop;
	// a trace recorded with it is written at v1.1 (the plan and the
	// resize/autoscale events are part of what Verify must reproduce).
	Autoscale *AutoscalePlan
}

// The timer names a trace may record: traces reference timers by name so a
// trace file stays a pure data artifact.
const (
	// TimerCompute is the communication-free step timer, the farm's
	// default.
	TimerCompute = "compute"
	// TimerPerfEthernet prices a step with the perf discrete-event engine
	// on the paper's shared 10 Mbps Ethernet.
	TimerPerfEthernet = "perf-ethernet"
)

// timers maps every timer name to its step timer.
var timers = map[string]farm.StepTimer{
	TimerCompute:      farm.ComputeTimer,
	TimerPerfEthernet: farm.PerfTimer(perf.Ethernet),
}

// timerFor resolves a timer name ("" = compute).
func timerFor(name string) (farm.StepTimer, error) {
	if name == "" {
		name = TimerCompute
	}
	t, ok := timers[name]
	if !ok {
		return nil, fmt.Errorf("workload: %w: timer %q is not known", ErrBadTrace, name)
	}
	return t, nil
}

// build assembles the farm for one run: the quiet paper pool (the
// paper's 25 hosts after 30 idle minutes — load averages decayed, every
// user idle — the experiments' common starting condition), the named
// timer, the scenario compiled onto WithScenario,
// checkpointing on the given grid.
func build(cfg RunConfig, sc *Scenario) (*farm.Farm, error) {
	timer, err := timerFor(cfg.Timer)
	if err != nil {
		return nil, err
	}
	opts := []farm.Option{
		farm.WithPolicy(cfg.Policy),
		farm.WithBackfill(cfg.Backfill),
		farm.WithSeed(cfg.Seed),
		farm.WithTimer(timer),
	}
	if sc != nil {
		every, fn, err := sc.Compile()
		if err != nil {
			return nil, err
		}
		opts = append(opts, farm.WithScenario(every, fn))
	}
	if cfg.Autoscale != nil {
		opt, err := cfg.Autoscale.Compile()
		if err != nil {
			return nil, err
		}
		opts = append(opts, opt)
	}
	if cfg.CheckpointEvery > 0 {
		if cfg.CheckpointDir == "" {
			return nil, fmt.Errorf("workload: %w: checkpoint interval %v without a directory", farm.ErrInvalidSpec, cfg.CheckpointEvery)
		}
		opts = append(opts, farm.WithCheckpoint(cfg.CheckpointDir, cfg.CheckpointEvery, cfg.CheckpointGap))
	}
	pool := farm.NewPaperCluster()
	pool.Advance(30 * time.Minute)
	return farm.New(pool, opts...)
}

// run submits the jobs, drains the farm and runs it to completion,
// collecting the full event stream as String lines.
func run(f *farm.Farm, jobs []farm.JobSpec) (farm.Summary, []string, error) {
	// The subscriber drains concurrently and the buffer rides out its
	// scheduling hiccups, so the stream is complete (Dropped is checked,
	// not assumed).
	sub := f.SubscribeBuffered(1 << 14)
	var lines []string
	done := make(chan struct{})
	//detlint:allow entropy -- subscriber drain: the goroutine only copies the already-ordered event stream into lines, and the reader joins on done before touching them
	go func() {
		defer close(done)
		for ev := range sub.Events() {
			lines = append(lines, ev.String())
		}
	}()
	fail := func(err error) (farm.Summary, []string, error) {
		sub.Close()
		<-done
		return farm.Summary{}, nil, err
	}
	for _, sp := range jobs {
		if _, err := f.Submit(sp, nil); err != nil {
			return fail(fmt.Errorf("workload: submit %s: %w", sp.ID, err))
		}
	}
	f.Drain()
	sum, err := f.Run(context.Background())
	if err != nil {
		return fail(fmt.Errorf("workload: run: %w", err))
	}
	// A drained Run closed the stream; the drain goroutine has the tail.
	<-done
	if d := sub.Dropped(); d > 0 {
		return farm.Summary{}, nil, fmt.Errorf("workload: event stream dropped %d events; trace incomplete", d)
	}
	return sum, lines, nil
}

// Record generates the spec's jobs at cfg.Seed, runs them under cfg
// with the spec's scenario attached, and returns the run's trace and
// metrics. The trace is closed over everything that shaped the stream,
// so Verify can re-run it bit-identically later, in another process.
func Record(spec *Spec, cfg RunConfig) (*Trace, farm.Summary, error) {
	jobs, err := Generate(spec, cfg.Seed)
	if err != nil {
		return nil, farm.Summary{}, err
	}
	f, err := build(cfg, spec.Scenario)
	if err != nil {
		return nil, farm.Summary{}, err
	}
	sum, lines, err := run(f, jobs)
	if err != nil {
		return nil, farm.Summary{}, err
	}
	minor := 0
	if cfg.Autoscale != nil || hasResizeEvents(lines) {
		// Malleability in the header or the stream: the trace needs the
		// v1.1 schema. Anything else stays plain v1 so pins recorded
		// before malleability existed remain byte-identical.
		minor = TraceMinor
	}
	return &Trace{
		Format:          TraceFormat,
		Version:         TraceVersion,
		Minor:           minor,
		Name:            spec.Name,
		Seed:            cfg.Seed,
		Policy:          cfg.Policy.String(),
		Backfill:        cfg.Backfill.String(),
		Timer:           cfg.Timer,
		CheckpointEvery: cfg.CheckpointEvery,
		CheckpointGap:   cfg.CheckpointGap,
		Scenario:        spec.Scenario,
		Autoscale:       cfg.Autoscale,
		Jobs:            jobs,
		Events:          lines,
	}, sum, nil
}

// hasResizeEvents reports whether any recorded event line is a resize
// or an autoscale decision. It reads the kind token, the second field
// of the stable `t=<time> <kind> ...` String form, so a job ID that
// happens to contain " resized " does not count.
func hasResizeEvents(lines []string) bool {
	for _, l := range lines {
		_, rest, _ := strings.Cut(l, " ")
		if kind, _, _ := strings.Cut(rest, " "); kind == "resized" || kind == "autoscale" {
			return true
		}
	}
	return false
}

// config rebuilds the recorded RunConfig (parsing the policy and
// backfill names); the checkpoint directory is the caller's.
func (tr *Trace) config(ckptDir string) (RunConfig, error) {
	policy, err := farm.ParsePolicy(tr.Policy)
	if err != nil {
		return RunConfig{}, fmt.Errorf("workload: %w: %w", ErrBadTrace, err)
	}
	backfill, err := farm.ParseBackfill(tr.Backfill)
	if err != nil {
		return RunConfig{}, fmt.Errorf("workload: %w: %w", ErrBadTrace, err)
	}
	return RunConfig{
		Seed:            tr.Seed,
		Policy:          policy,
		Backfill:        backfill,
		Timer:           tr.Timer,
		CheckpointEvery: tr.CheckpointEvery,
		CheckpointGap:   tr.CheckpointGap,
		CheckpointDir:   ckptDir,
		Autoscale:       tr.Autoscale,
	}, nil
}

// Verify re-runs the trace's recorded configuration — same jobs, seed,
// knobs, scenario and checkpoint grid, a fresh quiet paper pool —
// and asserts the event stream is byte-identical to the recording.
// A mismatch wraps ErrTraceDiverged and pinpoints the first divergent
// event. This is the regression pin CI runs: any drift in scheduling
// behavior, event ordering or trace rendering fails it.
func (tr *Trace) Verify() error {
	if err := tr.check(); err != nil {
		return err
	}
	ckptDir := ""
	if tr.CheckpointEvery > 0 {
		// The recorded run checkpointed, so this run must too — the
		// CheckpointSaved events are part of the stream. The directory is
		// not (String forms omit it); any throwaway location does.
		dir, err := os.MkdirTemp("", "trace-verify-")
		if err != nil {
			return fmt.Errorf("workload: verify: %w", err)
		}
		defer os.RemoveAll(dir)
		ckptDir = dir
	}
	cfg, err := tr.config(ckptDir)
	if err != nil {
		return err
	}
	f, err := build(cfg, tr.Scenario)
	if err != nil {
		return err
	}
	_, lines, err := run(f, tr.Jobs)
	if err != nil {
		return err
	}
	return diffEvents(tr.Events, lines)
}

// diffEvents compares two event streams line by line and reports the
// first divergence as an ErrTraceDiverged.
func diffEvents(want, got []string) error {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("workload: %w: event %d:\n  recorded: %s\n  replayed: %s", ErrTraceDiverged, i, want[i], got[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("workload: %w: recorded %d events, replayed %d", ErrTraceDiverged, len(want), len(got))
	}
	return nil
}

// check rejects traces this package does not understand — including
// internally inconsistent ones: a v1.0 trace that nevertheless carries
// resize or autoscale material was written by a buggy tool or edited
// by hand, and replaying it would diverge silently at the first resize
// the replay does not reproduce.
func (tr *Trace) check() error {
	if tr.Format != TraceFormat {
		return fmt.Errorf("workload: %w: format %q, want %q", ErrBadTrace, tr.Format, TraceFormat)
	}
	if tr.Version != TraceVersion {
		return fmt.Errorf("workload: %w: version %d, this build reads version %d", ErrBadTrace, tr.Version, TraceVersion)
	}
	if tr.Minor > TraceMinor {
		return fmt.Errorf("workload: %w: version %d.%d, this build reads up to %d.%d", ErrBadTrace, tr.Version, tr.Minor, TraceVersion, TraceMinor)
	}
	if tr.Minor < TraceMinor && (tr.Autoscale != nil || hasResizeEvents(tr.Events)) {
		return fmt.Errorf("workload: %w: v%d.%d trace contains resize/autoscale material, which needs v%d.%d; re-record it",
			ErrBadTrace, tr.Version, tr.Minor, TraceVersion, TraceMinor)
	}
	return nil
}

// WriteFile serializes the trace as indented JSON.
func (tr *Trace) WriteFile(path string) error {
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return fmt.Errorf("workload: encode trace: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadTrace loads and checks a trace file; unknown formats or versions
// are rejected with ErrBadTrace rather than misparsed.
func ReadTrace(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: read trace: %w", err)
	}
	var tr Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("workload: %w: %w", ErrBadTrace, err)
	}
	if err := tr.check(); err != nil {
		return nil, err
	}
	return &tr, nil
}
