package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
)

// The tracer records a span at each boundary the benchmark crosses into
// the system: a decorator around core.Program (Compute, Sends, Unpack per
// phase) and one around msg.Transport (Send, Recv), under a root span per
// Worker.RunStep or control-plane operation. Spans stay in memory and are
// written when the run ends. A span's self time is its duration minus the
// time its children cover, so the self times under one root add up to the
// root exactly.

// spanKind enumerates the boundaries; rankTrace.layerName renders them.
type spanKind uint8

const (
	kStep    spanKind = iota // core: one Worker.RunStep
	kCompute                 // lbm / fd: Program.Compute(phase)
	kPack                    // halo: Program.Sends(phase)
	kSend                    // msg: Transport.Send
	kRecv                    // msg: Transport.Recv (time blocked)
	kUnpack                  // halo: Program.Unpack
	kOp                      // a control-plane or farm operation, named by rankTrace.opNames
	nKinds
)

// maxSub bounds the second span index: a solver phase, or an operation name.
const maxSub = 16

var kindNames = [nKinds]string{"RunStep", "Compute", "Sends", "Send", "Recv", "Unpack", "op"}

// span is one retained record; it is rendered to the documented JSON
// shape {id, parent, layer, name, start_ns, end_ns, rank, step} on write.
type span struct {
	id, parent int32
	kind       spanKind
	phase      int8
	rank       int16
	step       int32
	start, end int64
}

// stat aggregates every span of one (kind, phase) on one rank.
type stat struct {
	count  int64
	total  int64 // ns, children included
	self   int64 // ns, children excluded
	sample []int64
}

type openSpan struct {
	id    int32
	kind  spanKind
	phase int8
	start int64
	child int64
}

// rankTrace is one rank's recorder. A rank runs on one goroutine, so it
// needs no lock; ranks never share one.
type rankTrace struct {
	tr     *tracer
	rank   int
	layer  string // the solver layer name Compute spans carry
	step   int    // the step the rank is executing
	on     bool   // spans and counts are taken only while set
	nextID int32
	stack  []openSpan
	stats  [nKinds][maxSub]stat
	spans  []span

	// message census, counted where the work happens
	sends, sendValues int64
	recvs, early      int64
	packValues        int64
	unpackValues      int64
	skewMax           int
	opLayer           string   // kOp spans: the layer they carry
	opNames           []string // kOp spans: phase indexes this
}

// enable switches every rank's recording on or off. It is called between
// run segments, never while a rank is inside a span.
func (tr *tracer) enable(on bool) {
	for _, rt := range tr.ranks {
		rt.on = on
	}
}

// tracer owns the per-rank recorders of one traced run.
type tracer struct {
	t0       time.Time
	keep     int // spans retained per rank for the span file
	ranks    []*rankTrace
	sampling [nKinds]bool // which kinds keep per-call durations
}

func newTracer(ranks int, layer string) *tracer {
	tr := &tracer{t0: time.Now(), keep: 40000}
	tr.sampling[kSend], tr.sampling[kRecv] = true, true
	for r := 0; r < ranks; r++ {
		tr.ranks = append(tr.ranks, &rankTrace{tr: tr, rank: r, layer: layer, stack: make([]openSpan, 0, 8)})
	}
	return tr
}

func (rt *rankTrace) begin(k spanKind, phase int) {
	if !rt.on {
		return
	}
	rt.nextID++
	rt.stack = append(rt.stack, openSpan{id: rt.nextID, kind: k, phase: int8(phase), start: int64(time.Since(rt.tr.t0))})
}

func (rt *rankTrace) end() {
	if !rt.on {
		return
	}
	now := int64(time.Since(rt.tr.t0))
	n := len(rt.stack) - 1
	o := rt.stack[n]
	rt.stack = rt.stack[:n]
	dur := now - o.start
	var parent int32
	if n > 0 {
		rt.stack[n-1].child += dur
		parent = rt.stack[n-1].id
	}
	st := &rt.stats[o.kind][o.phase]
	st.count++
	st.total += dur
	st.self += dur - o.child
	if rt.tr.sampling[o.kind] {
		st.sample = append(st.sample, dur)
	}
	if len(rt.spans) < rt.tr.keep {
		rt.spans = append(rt.spans, span{id: o.id, parent: parent, kind: o.kind, phase: o.phase,
			rank: int16(rt.rank), step: int32(rt.step), start: o.start, end: now})
	}
}

// kindTotal sums a kind over its phases.
func (rt *rankTrace) kindTotal(k spanKind) (count, total, self int64) {
	for ph := range rt.stats[k] {
		st := &rt.stats[k][ph]
		count += st.count
		total += st.total
		self += st.self
	}
	return
}

func (rt *rankTrace) kindSamples(k spanKind) []float64 {
	var out []float64
	for ph := range rt.stats[k] {
		for _, d := range rt.stats[k][ph].sample {
			out = append(out, float64(d))
		}
	}
	return out
}

// tracedProgram times the Program calls the Worker makes.
type tracedProgram struct {
	core.Program
	rt *rankTrace
}

func (p *tracedProgram) Compute(phase int) {
	p.rt.begin(kCompute, phase)
	p.Program.Compute(phase)
	p.rt.end()
}

func (p *tracedProgram) Sends(phase int) []core.Send {
	p.rt.begin(kPack, phase)
	out := p.Program.Sends(phase)
	p.rt.end()
	if p.rt.on {
		for _, s := range out {
			p.rt.packValues += int64(len(s.Data))
		}
	}
	return out
}

func (p *tracedProgram) Unpack(phase, dir int, data []float64) {
	p.rt.begin(kUnpack, phase)
	p.Program.Unpack(phase, dir, data)
	p.rt.end()
	if p.rt.on {
		p.rt.unpackValues += int64(len(data))
	}
}

// unwrap returns the Program under a tracing decorator, if any.
func unwrap(p core.Program) core.Program {
	if t, ok := p.(*tracedProgram); ok {
		return t.Program
	}
	return p
}

// tracedTransport times Send and Recv and takes the message census.
type tracedTransport struct {
	msg.Transport
	rt *rankTrace
}

func (t *tracedTransport) Send(m msg.Message) error {
	t.rt.begin(kSend, m.Phase)
	err := t.Transport.Send(m)
	t.rt.end()
	if t.rt.on {
		t.rt.sends++
		t.rt.sendValues += int64(len(m.Data))
	}
	return err
}

func (t *tracedTransport) Recv() (msg.Message, error) {
	t.rt.begin(kRecv, 0)
	m, err := t.Transport.Recv()
	t.rt.end()
	if err == nil && t.rt.on {
		t.rt.recvs++
		if d := m.Step - t.rt.step; d > 0 {
			t.rt.early++
			t.rt.skewMax = max(t.rt.skewMax, d)
		}
	}
	return m, err
}

// factory decorates every transport a TransportFactory opens.
func (tr *tracer) factory(inner core.TransportFactory) core.TransportFactory {
	return func(rank, epoch int) (msg.Transport, error) {
		t, err := inner(rank, epoch)
		if err != nil {
			return nil, err
		}
		return &tracedTransport{Transport: t, rt: tr.ranks[rank]}, nil
	}
}

// spanJSON is the span file's record shape.
type spanJSON struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Rank    int    `json:"rank"`
	Step    int    `json:"step"`
}

// selfJSON is one row of the span file's self-time table.
type selfJSON struct {
	Rank    int    `json:"rank"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func (rt *rankTrace) layerName(k spanKind, phase int8) (layer, name string) {
	switch k {
	case kStep:
		return "core", kindNames[k]
	case kCompute:
		return rt.layer, kindNames[k] + "(" + string(rune('0'+phase)) + ")"
	case kPack, kUnpack:
		return "halo", kindNames[k] + "(" + string(rune('0'+phase)) + ")"
	case kSend, kRecv:
		return "msg", kindNames[k]
	}
	if int(phase) < len(rt.opNames) {
		return rt.opLayer, rt.opNames[phase]
	}
	return rt.opLayer, kindNames[k]
}

// write stores the retained spans and the full self-time table as
// <dir>/<workload>.trace.json.
func (tr *tracer) write(dir, workload string) (string, error) {
	type file struct {
		Workload  string     `json:"workload"`
		Note      string     `json:"note"`
		Truncated bool       `json:"truncated"`
		Self      []selfJSON `json:"self_time"`
		Spans     []spanJSON `json:"spans"`
	}
	out := file{
		Workload: workload,
		Note: "spans: the first spans of each rank, ids unique per rank, parent 0 = root; " +
			"self_time covers every span of the run, self_ns = total_ns minus child spans",
	}
	for _, rt := range tr.ranks {
		for k := spanKind(0); k < nKinds; k++ {
			for ph := range rt.stats[k] {
				st := &rt.stats[k][ph]
				if st.count == 0 {
					continue
				}
				layer, name := rt.layerName(k, int8(ph))
				out.Self = append(out.Self, selfJSON{Rank: rt.rank, Layer: layer, Name: name,
					Count: st.count, TotalNs: st.total, SelfNs: st.self})
			}
		}
		if int(rt.nextID) > len(rt.spans) {
			out.Truncated = true
		}
		for _, s := range rt.spans {
			layer, name := rt.layerName(s.kind, s.phase)
			out.Spans = append(out.Spans, spanJSON{ID: s.id, Parent: s.parent, Layer: layer, Name: name,
				StartNs: s.start, EndNs: s.end, Rank: int(s.rank), Step: int(s.step)})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
