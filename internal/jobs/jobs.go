// Package jobs is the core of the concurrent analysis service: a bounded
// worker pool executing schedulability runs, a job registry with per-job
// resource budgets and cancellation (the PR 1 guarded-interpretation
// plumbing), and a content-addressed result cache keyed by the canonical
// configuration fingerprint. The paper's central property — one
// deterministic NSA interpretation decides a configuration — is what makes
// the cache sound: a configuration's verdict, trace and statistics are a
// pure function of its content, so identical submissions (across a sweep,
// or across clients of cmd/saserve) can share one completed run.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"time"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/diag"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/trace"
	"stopwatchsim/internal/xta"
)

// Status is the lifecycle state of a job.
type Status string

// Job lifecycle states. A job moves queued → running → one of the three
// terminal states; a cache hit is born done.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether a status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Verdict is the analysis conclusion of a successfully completed run.
type Verdict string

// Verdicts. Configuration runs conclude schedulable or unschedulable; raw
// NSA runs (XTA models have no schedulability criterion) conclude
// completed when the interpretation reaches its horizon cleanly.
const (
	VerdictSchedulable   Verdict = "schedulable"
	VerdictUnschedulable Verdict = "unschedulable"
	VerdictCompleted     Verdict = "completed"
)

// Outcome is the product of a successful run. Once published on a job it
// is immutable and may be shared between jobs through the cache.
type Outcome struct {
	Verdict Verdict

	// Sys, Trace and Analysis are set for configuration runs: the system
	// the run analyzed, its operation trace and the schedulability
	// statistics.
	Sys      *config.System
	Trace    *trace.Trace
	Analysis *trace.Analysis

	// Sync is the rendered synchronization trace of a raw NSA run.
	Sync []diag.TraceEvent

	// Engine summarizes the interpretation (actions, delays, stop time).
	Engine nsa.Result

	// Telemetry is the run's RunReport: per-phase durations plus the
	// engine hot-path counters collected by the run's probe.
	Telemetry *obs.RunReport

	// Persisted is set on outcomes restored from the persistent store,
	// carrying the analysis counts of the original run; the full trace is
	// not retained on disk, so Sys, Trace and Analysis are nil.
	Persisted *OutcomeSummary

	// Elapsed is the wall time the run itself took (excluding queueing).
	Elapsed time.Duration
}

// Runner is one unit of analysis work submitted to a Pool.
type Runner interface {
	// Key is the content address of the work: runs with equal keys produce
	// interchangeable Outcomes. An empty key disables caching for the job.
	Key() string
	// Run executes the work under a context and resource budget. The
	// returned error is classified by internal/diag into the structured
	// report stored on the job.
	Run(ctx context.Context, b nsa.Budget) (*Outcome, error)
}

// ConfigRun is the standard pipeline on a system configuration: build the
// NSA instance (Algorithm 1), interpret one hyperperiod, check the
// schedulability criterion over the trace.
type ConfigRun struct {
	Sys *config.System
	// Backend pins the engine backend for this run; the zero value
	// (BackendCompiled) lets the pool's default apply. Not part of Key:
	// backends are outcome-interchangeable.
	Backend nsa.Backend
}

// Key returns the canonical configuration fingerprint.
func (r ConfigRun) Key() string { return r.Sys.Fingerprint() }

// Run executes the pipeline under a phase timeline and an engine probe;
// the resulting RunReport is attached to the outcome. Every run
// interprets a prepared engine (model.Prepare). Inside a pool worker it
// checks the engine out of the worker's cache and puts it back after a
// successful run: a repeat of a cached configuration Reset+Runs its
// persistent engine instead of rebuilding the network (the build phase
// then contributes nothing to the timeline — truthfully, since no build
// happened). Outside a pool the prepared engine is used once.
func (r ConfigRun) Run(ctx context.Context, b nsa.Budget) (*Outcome, error) {
	start := time.Now()
	tl := obs.NewTimeline()

	ec := engineCacheFrom(ctx)
	var key string
	var prep *model.Prepared
	if ec != nil {
		key = r.Sys.Fingerprint() + "/" + r.Backend.String()
		prep = ec.get(key)
	}
	if prep == nil {
		sp := tl.Start(obs.PhaseBuild)
		var err error
		prep, err = model.Prepare(r.Sys, r.Backend)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	sp := tl.Start(obs.PhaseInterpret)
	tr, res, probe, err := prep.Simulate(ctx, b)
	sp.End()
	if err != nil {
		// A failed or canceled run may leave the runtime mid-flight; the
		// checked-out engine is simply not returned, so the next run of
		// this configuration rebuilds cleanly.
		return nil, err
	}
	if ec != nil {
		ec.put(key, prep)
	}
	sp = tl.Start(obs.PhaseCheck)
	a, err := trace.Analyze(r.Sys, tr)
	sp.End()
	if err != nil {
		return nil, err
	}
	v := VerdictUnschedulable
	if a.Schedulable {
		v = VerdictSchedulable
	}
	return &Outcome{
		Verdict:   v,
		Sys:       r.Sys,
		Trace:     tr,
		Analysis:  a,
		Engine:    res,
		Telemetry: tl.Report("jobs", probe),
		Elapsed:   time.Since(start),
	}, nil
}

// XTARun compiles a model written in the XTA-like language and interprets
// it to the given horizon, the cmd/xtasim pipeline as a service job.
type XTARun struct {
	Src     string
	Horizon int64
	// Backend pins the engine backend for this run; the zero value
	// (BackendCompiled) lets the pool's default apply. Not part of Key:
	// backends are outcome-interchangeable.
	Backend nsa.Backend
}

// Key hashes the source and horizon; the interpretation is deterministic,
// so equal sources at equal horizons yield interchangeable outcomes.
func (r XTARun) Key() string {
	h := sha256.New()
	var hz [8]byte
	binary.BigEndian.PutUint64(hz[:], uint64(r.Horizon))
	h.Write(hz[:])
	h.Write([]byte(r.Src))
	return "xta-" + hex.EncodeToString(h.Sum(nil))
}

// Run compiles and interprets the model, probed and phase-timed like
// ConfigRun (compilation counts as the build phase).
func (r XTARun) Run(ctx context.Context, b nsa.Budget) (*Outcome, error) {
	start := time.Now()
	tl := obs.NewTimeline()
	probe := &obs.Probe{}
	sp := tl.Start(obs.PhaseBuild)
	m, err := xta.Compile(r.Src)
	sp.End()
	if err != nil {
		return nil, err
	}
	tr := &nsa.SyncTrace{}
	eng := nsa.NewEngine(m.Net, nsa.Options{
		Horizon:   r.Horizon,
		Listeners: []nsa.Listener{tr},
		Budget:    b,
		Probe:     probe,
		Backend:   r.Backend,
		Logger:    obs.LoggerFrom(ctx),
		Flight:    obs.FlightFrom(ctx),
	})
	sp = tl.Start(obs.PhaseInterpret)
	res, err := eng.RunContext(ctx)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tl.Start(obs.PhaseExport)
	sync := diag.RenderTrace(tr.Events, m.Net)
	sp.End()
	return &Outcome{
		Verdict:   VerdictCompleted,
		Sync:      sync,
		Engine:    res,
		Telemetry: tl.Report("jobs", probe),
		Elapsed:   time.Since(start),
	}, nil
}

// Job is the registry record of one submitted run. Values returned by the
// Pool are snapshots: safe to read without synchronization, stale the
// moment they are taken.
type Job struct {
	ID       string
	Key      string
	Status   Status
	CacheHit bool
	// DiskHit marks a cache hit served from the persistent tier rather
	// than the in-memory cache (CacheHit is set in both cases).
	DiskHit bool
	// Trace is the job's anchor span in its request's trace, valid only
	// for jobs submitted through SubmitTraced on a tracing pool.
	Trace obs.TraceContext
	// PostmortemKey names the flight-recorder dump left behind when the
	// run ended in deadlock, watchdog kill, panic or injected fault
	// (retrievable via Pool.Postmortem); empty otherwise.
	PostmortemKey string

	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	// Outcome is set when Status is done. It may be shared with other
	// jobs via the cache; treat it as immutable.
	Outcome *Outcome

	// Err and Report are set when Status is failed or canceled: the raw
	// error and its structured diag classification.
	Err    error
	Report *diag.Report

	runner Runner
	budget nsa.Budget
	cancel context.CancelFunc
	done   chan struct{}

	// Watchdog bookkeeping: attempts counts watchdog requeues so far,
	// wedged marks the current attempt as deadlined, userCanceled
	// distinguishes a user cancel (terminal) from a watchdog kill
	// (requeueable). All guarded by the pool's registry lock.
	attempts     int
	wedged       bool
	userCanceled bool

	// postmortem is the in-process copy of the flight-recorder dump named
	// by PostmortemKey. Guarded by the pool's registry lock.
	postmortem *Postmortem

	// followers are the identical jobs submitted while this one was
	// queued or running; they finish with its outcome instead of running
	// themselves, or take the computation over when it fails. Guarded by
	// the pool's registry lock.
	followers []*Job
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }
