// Package explore is the exploration kernel under design-space campaigns
// (internal/campaign) and region synthesis (internal/synth). Both are
// point generators over the same oracle — one deterministic NSA
// interpretation per configuration, answered by the shared jobs.Pool —
// and the kernel owns everything they have in common:
//
//   - the content-addressed registry and lifecycle: start or resume,
//     register inert, cancel, wait, status and metrics accounting;
//   - the checkpoint: the whole state document, re-written to the
//     artifact store after every recorded point, riding through transient
//     store faults on the pool's retry policy;
//   - point evaluation: the campaign fault site, a backpressured traced
//     submit, waiting with cancellation propagated into the pool, retries
//     with doubling backoff, source classification, and the point span;
//   - batch evaluation: windows of points submitted together and settled
//     in order, so records land in the same order at any worker count;
//   - the ops view: the live event hub with progress and ETA, the
//     straggler report, and the root and point spans;
//   - the command-line front end (Command) of cmd/campaign and cmd/synth.
//
// What stays per kind is the state document (its schema and per-point
// records), how a point materializes, what a recorded point means, and
// what to do once a failed point has exhausted its retries: a campaign
// quarantines it and moves on, a synthesis aborts.
package explore

import (
	"context"
	"errors"
	"log/slog"
	"sort"
	"sync"

	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/store"
)

// Exploration statuses.
const (
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Point sources: where a point's verdict came from.
const (
	SourceComputed   = "computed"   // a fresh engine run
	SourceMemory     = "memory"     // the pool's in-memory result cache
	SourceDisk       = "disk"       // the persistent store tier
	SourceCheckpoint = "checkpoint" // the exploration's own recorded state
	SourceFailed     = "failed"     // the run failed after its retries
)

// Header points at the lifecycle fields every checkpoint document
// carries, so the kernel can drive a state type it does not know.
type Header struct {
	ID, Name, Status, Error, StartedAt, UpdatedAt, Trace *string
}

// Kind describes one exploration kind to the kernel: its checkpoint
// schema, its live event form, and how a registered run becomes a point
// generator. S is the state document, E the live event.
type Kind[S, E any] struct {
	// Name is the store kind of checkpoints, the log key of a run's ID and
	// the root span name ("campaign", "synth"); Noun names a run in log
	// messages and HTTP errors ("campaign", "synthesis").
	Name, Noun string
	// Unknown is the error Wait returns for an unregistered ID.
	Unknown error

	// Valid reports whether a decoded checkpoint is of this kind's schema.
	Valid func(*S) bool
	// Header exposes a state's lifecycle fields.
	Header func(*S) Header
	// Clone returns a snapshot safe to hand out concurrently with mutation.
	Clone func(*S) S
	// Detail is the root span's detail (the strategy, say).
	Detail func(*S) string
	// Event builds the kind's live event from a kernel note.
	Event func(id string, n Note) E
	// Attach builds the per-kind half of a run being registered, indexing
	// the points st already records. The run is not yet shared, so Attach
	// may read and reset st directly.
	Attach func(r *Run[S, E], st *S) Explorer
}

// Explorer is the per-kind half of one registered run: its point
// generator.
type Explorer interface {
	// Explore drives the exploration to completion through Run.Evaluate.
	// Its error decides the terminal status: nil is done, a cancellation
	// canceled, anything else failed.
	Explore(ctx context.Context) error
	// Finish folds the terminal status into the state. Called with the
	// run's lock held, after the status is set.
	Finish(st string)
	// Progress reports points done, the known total (0 when open-ended)
	// and the evaluation parallelism the ETA divides by. Called with the
	// run's lock held.
	Progress() (done, total, par int)
}

// Metrics are the lifecycle and point-source counters every kind
// exports, as the saserve_<kind>_* metric families.
type Metrics struct {
	Started  int64 `json:"started"`
	Resumed  int64 `json:"resumed"`
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`

	PointsComputed    int64 `json:"points_computed"`
	PointsCacheMemory int64 `json:"points_cache_memory"`
	PointsCacheDisk   int64 `json:"points_cache_disk"`
	PointsCheckpoint  int64 `json:"points_checkpoint"`
	PointsFailed      int64 `json:"points_failed"`
}

// Engine orchestrates one kind's explorations over a shared jobs.Pool,
// checkpointing state to an artifact store after every recorded point.
// The store may be nil, in which case explorations run memory-only (no
// resume across restarts). One Engine serves many concurrent runs; each
// runs in its own goroutine and fans its points through the pool.
type Engine[S, E any] struct {
	kind Kind[S, E]
	pool *jobs.Pool
	st   *store.Store
	lg   *slog.Logger

	mu      sync.Mutex
	runs    map[string]*Run[S, E]
	metrics Metrics
}

// New creates an engine for kind over the pool, checkpointing to st (nil
// disables persistence). The logger may be nil.
func New[S, E any](pool *jobs.Pool, st *store.Store, lg *slog.Logger, kind Kind[S, E]) *Engine[S, E] {
	return &Engine[S, E]{kind: kind, pool: pool, st: st, lg: lg, runs: make(map[string]*Run[S, E])}
}

// Start registers and launches the run with the given content address,
// returning a snapshot of its state. A live run with that ID is returned
// as is; a checkpoint in the store resumes, or is served from its stored
// state when terminal; otherwise fresh builds the initial state.
func (e *Engine[S, E]) Start(id string, fresh func() *S) S {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r := e.runs[id]; r != nil {
		return r.snapshot()
	}
	st := e.load(id)
	resumed := st != nil
	if st == nil {
		st = fresh()
	}
	r := e.registerLocked(st)
	if *e.kind.Header(st).Status == StatusRunning {
		if resumed {
			e.metrics.Resumed++
		} else {
			e.metrics.Started++
		}
		r.launch()
	}
	return r.snapshot()
}

// ResumeAll loads every checkpoint from the store into the registry and
// relaunches the ones a crash interrupted (status still "running"),
// returning their IDs. Finished runs register inert so their state and
// exports stay queryable after a restart.
func (e *Engine[S, E]) ResumeAll() []string { return e.loadAll(true) }

// RegisterAll loads every checkpoint into the registry without
// relaunching any — the read-only counterpart of ResumeAll, for status
// and export tooling. Checkpoints still marked running register inert and
// count as settled, so Wait on them returns their state at once.
func (e *Engine[S, E]) RegisterAll() { e.loadAll(false) }

func (e *Engine[S, E]) loadAll(relaunch bool) []string {
	if e.st == nil {
		return nil
	}
	var resumed []string
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range e.st.Keys(e.kind.Name) {
		if e.runs[id] != nil {
			continue
		}
		st := e.load(id)
		if st == nil {
			continue
		}
		r := e.registerLocked(st)
		switch {
		case *e.kind.Header(st).Status != StatusRunning:
		case relaunch:
			e.metrics.Resumed++
			r.launch()
			resumed = append(resumed, id)
		default:
			// Not launched: nobody will close done, so Wait would hang.
			close(r.done)
		}
	}
	sort.Strings(resumed)
	return resumed
}

// load reads a checkpoint, nil when absent, unreadable, or of a foreign
// schema.
func (e *Engine[S, E]) load(id string) *S {
	if e.st == nil {
		return nil
	}
	st := new(S)
	ok, err := e.st.Get(e.kind.Name, id, st)
	if err != nil || !ok || !e.kind.Valid(st) {
		return nil
	}
	return st
}

// registerLocked adds a run for st to the registry. Terminal states get
// an already-closed done channel. Callers hold e.mu.
func (e *Engine[S, E]) registerLocked(st *S) *Run[S, E] {
	r := &Run[S, E]{
		eng:   e,
		state: st,
		durs:  obs.NewHistogram(0, 1, nil),
		done:  make(chan struct{}),
	}
	r.x = e.kind.Attach(r, st)
	h := e.kind.Header(st)
	if *h.Status != StatusRunning {
		close(r.done)
	}
	e.runs[*h.ID] = r
	return r
}

func (e *Engine[S, E]) lookup(id string) *Run[S, E] {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runs[id]
}

// Get returns a snapshot of the run's state.
func (e *Engine[S, E]) Get(id string) (S, bool) {
	r := e.lookup(id)
	if r == nil {
		var zero S
		return zero, false
	}
	return r.snapshot(), true
}

// List returns snapshots of all registered runs, ordered by ID.
func (e *Engine[S, E]) List() []S {
	e.mu.Lock()
	ids := make([]string, 0, len(e.runs))
	for id := range e.runs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rs := make([]*Run[S, E], len(ids))
	for i, id := range ids {
		rs[i] = e.runs[id]
	}
	e.mu.Unlock()
	out := make([]S, len(rs))
	for i, r := range rs {
		out[i] = r.snapshot()
	}
	return out
}

// Cancel requests cancellation of a running exploration. It returns false
// when the ID is unknown or the run already terminal.
func (e *Engine[S, E]) Cancel(id string) bool {
	r := e.lookup(id)
	if r == nil {
		return false
	}
	r.mu.Lock()
	running := *e.kind.Header(r.state).Status == StatusRunning && r.cancel != nil
	r.mu.Unlock()
	if running {
		r.cancel()
	}
	return running
}

// Wait blocks until the run reaches a terminal state or ctx is done.
func (e *Engine[S, E]) Wait(ctx context.Context, id string) (S, error) {
	var zero S
	r := e.lookup(id)
	if r == nil {
		return zero, e.kind.Unknown
	}
	select {
	case <-r.done:
	case <-ctx.Done():
		return zero, ctx.Err()
	}
	return r.snapshot(), nil
}

// Metrics returns a snapshot of the kind's counters.
func (e *Engine[S, E]) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics
}

func (e *Engine[S, E]) count(f func(*Metrics)) {
	e.mu.Lock()
	f(&e.metrics)
	e.mu.Unlock()
}

// Noun names a run of this kind for humans ("campaign", "synthesis").
func (e *Engine[S, E]) Noun() string { return e.kind.Noun }

// Header exposes the lifecycle fields of one of this kind's states.
func (e *Engine[S, E]) Header(st *S) Header { return e.kind.Header(st) }

// Subscribe attaches a live event subscriber to a run, returning a
// synthetic status event built from the run's current state — the
// opening record of every SSE stream, so a subscriber to an
// already-terminal run still sees its status — the channel of the events
// that follow, and a cancel function. The channel is closed by cancel,
// not by completion: subscribers see the terminal "status" event and
// detach themselves.
func (e *Engine[S, E]) Subscribe(id string) (E, <-chan any, func(), bool) {
	r := e.lookup(id)
	if r == nil {
		var zero E
		return zero, nil, nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ch, cancel := r.hub.Subscribe(16)
	return r.eventLocked(Note{Type: "status", Status: *e.kind.Header(r.state).Status}), ch, cancel, true
}

// outcome maps the error an exploration ended with to its terminal
// status.
func outcome(err error) string {
	switch {
	case err == nil:
		return StatusDone
	case errors.Is(err, context.Canceled):
		return StatusCanceled
	default:
		return StatusFailed
	}
}
