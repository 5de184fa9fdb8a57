package obs

import (
	"sync"
	"time"
)

// Canonical pipeline phase names. The phases of one analysis run, in
// order; tools use the subset that applies to their pipeline. Keeping the
// vocabulary here (rather than as ad-hoc strings at every call site)
// keeps the /metrics phase label set and the RunReport JSON stable.
const (
	PhaseParse     = "parse"     // read the input (XML, JSON, XTA source)
	PhaseValidate  = "validate"  // configuration validation
	PhaseBuild     = "build"     // model construction (Algorithm 1)
	PhaseIndex     = "index"     // static compiled-network construction
	PhaseInterpret = "interpret" // the NSA interpretation run
	PhaseCheck     = "check"     // schedulability criterion over the trace
	PhaseExport    = "export"    // trace/report serialization
	PhasePlan      = "plan"      // compositional decomposition and contract derivation
	PhaseCompose   = "compose"   // per-module analyses and the interface refinement check
)

// PhaseSpan is one completed (or still-open) span of a Timeline: a named
// pipeline phase with its offset from the run start and duration, both in
// nanoseconds so the JSON form is unit-unambiguous. Depth is the number
// of enclosing spans still open when this one started, so nested
// instrumentation (e.g. "index" inside "build") renders as a tree.
type PhaseSpan struct {
	Name    string `json:"name"`
	Depth   int    `json:"depth,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// Timeline records the phase spans of one run. The zero value is not
// usable; create one with NewTimeline. A nil *Timeline is the disabled
// timeline: Start returns a nil *Span and both are no-ops, so pipeline
// code can instrument unconditionally.
//
// Timelines are mutex-guarded rather than atomic: spans open and close a
// handful of times per run (pipeline-phase granularity, never inside the
// interpretation loop), so contention is irrelevant and the lock keeps
// the span slice simple.
type Timeline struct {
	mu    sync.Mutex
	t0    time.Time
	open  int
	spans []PhaseSpan
}

// NewTimeline starts a timeline at the current time.
func NewTimeline() *Timeline { return &Timeline{t0: time.Now()} }

// Span is an open phase started by Timeline.Start; End closes it.
type Span struct {
	tl    *Timeline
	idx   int
	begin time.Time
}

// Start opens a span named name. Nil-safe: on a nil timeline it returns
// a nil span whose End is a no-op.
func (t *Timeline) Start(name string) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, PhaseSpan{
		Name:    name,
		Depth:   t.open,
		StartNS: now.Sub(t.t0).Nanoseconds(),
	})
	t.open++
	t.mu.Unlock()
	return &Span{tl: t, idx: idx, begin: now}
}

// End closes the span and returns its duration. Nil-safe; ending a span
// twice keeps the first duration.
func (s *Span) End() time.Duration {
	if s == nil || s.tl == nil {
		return 0
	}
	d := time.Since(s.begin)
	t := s.tl
	s.tl = nil // idempotent
	t.mu.Lock()
	t.spans[s.idx].DurNS = d.Nanoseconds()
	if t.open > 0 {
		t.open--
	}
	t.mu.Unlock()
	return d
}

// Spans returns a copy of the recorded spans in start order.
func (t *Timeline) Spans() []PhaseSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PhaseSpan, len(t.spans))
	copy(out, t.spans)
	return out
}

// RunReport is the per-run telemetry document: the pipeline phase spans,
// the engine hot-path counters, and the total wall time. It is attached
// to completed jobs (GET /v1/jobs/{id}/report), embedded in the -report
// JSON of the CLIs, and its JSON schema is pinned by a golden file in
// internal/trace/testdata.
type RunReport struct {
	// Tool names the producing pipeline ("simulate", "saserve", ...).
	Tool string `json:"tool,omitempty"`
	// Phases are the pipeline spans in start order.
	Phases []PhaseSpan `json:"phases,omitempty"`
	// Counters are the engine hot-path counters of the run.
	Counters Counters `json:"counters"`
	// TotalNS is the wall time from timeline start to report creation.
	TotalNS int64 `json:"total_ns"`
}

// Report finalizes the timeline into a RunReport, folding in the probe's
// counters. Nil-safe on both receivers: a nil timeline yields a report
// with no phases, a nil probe zero counters.
func (t *Timeline) Report(tool string, p *Probe) *RunReport {
	r := &RunReport{Tool: tool, Counters: p.Snapshot()}
	if t != nil {
		r.Phases = t.Spans()
		r.TotalNS = time.Since(t.t0).Nanoseconds()
	}
	return r
}

// PhaseDur returns the total duration of the named phase (summed over
// repeated spans), or 0 when absent.
func (r *RunReport) PhaseDur(name string) time.Duration {
	if r == nil {
		return 0
	}
	var ns int64
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			ns += r.Phases[i].DurNS
		}
	}
	return time.Duration(ns)
}
