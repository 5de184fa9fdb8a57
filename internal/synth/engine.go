package synth

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"stopwatchsim/internal/explore"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/store"
)

// Engine errors.
var (
	// ErrUnknownSynthesis is returned for IDs the registry does not hold.
	ErrUnknownSynthesis = errors.New("synth: unknown synthesis")
)

// pointRetries and pointRetryBackoff bound re-attempts of a failed oracle
// run before the synthesis aborts. Unlike a campaign grid — where one
// quarantined point leaves a hole in an otherwise useful map — a region
// derived around a missing verdict would be silently wrong, so synthesis
// retries briefly and then fails loudly.
const (
	pointRetries      = 2
	pointRetryBackoff = 50 * time.Millisecond
)

// Engine orchestrates syntheses on the exploration kernel: the kernel
// owns the registry, checkpoints, point evaluation and the ops view; the
// refinement is its point generator.
type Engine struct {
	*explore.Engine[State, Event]

	boxesClassified, splits, bisectIterations atomic.Int64
}

// EngineMetrics are the synthesis-level telemetry counters, exposed by
// cmd/saserve as the saserve_synth_* metric families. Synthesis never
// records a failed point, so PointsFailed stays zero.
type EngineMetrics struct {
	explore.Metrics

	BoxesClassified  int64 `json:"boxes_classified"`
	Splits           int64 `json:"splits"`
	BisectIterations int64 `json:"bisect_iterations"`
}

// Event is one record on a synthesis's live event stream (the body of
// GET /v1/synth/{id}/events).
type Event struct {
	// Type is "point" (a point settled), "quarantine" (a point failed —
	// for a synthesis that aborts the run) or "status" (terminal state).
	Type   string `json:"type"`
	Synth  string `json:"synth"`
	Status string `json:"status,omitempty"`

	// Point fields, set on point/quarantine events.
	Point    string `json:"point,omitempty"` // idxKey form
	Source   string `json:"source,omitempty"`
	Feasible bool   `json:"feasible,omitempty"`
	Trace    string `json:"traceparent,omitempty"`

	// Progress against the space's evaluation budget: refinement is
	// adaptive, so the budget is the only known total.
	explore.Progress
}

// NewEngine creates an engine over the pool, checkpointing to st (nil
// disables persistence). The logger may be nil.
func NewEngine(pool *jobs.Pool, st *store.Store, lg *slog.Logger) *Engine {
	e := &Engine{}
	e.Engine = explore.New(pool, st, lg, explore.Kind[State, Event]{
		Name:    stateKind,
		Noun:    "synthesis",
		Unknown: ErrUnknownSynthesis,
		Valid:   func(s *State) bool { return s.Version == stateVersion && s.Space != nil },
		Header: func(s *State) explore.Header {
			return explore.Header{ID: &s.ID, Name: &s.Name, Status: &s.Status, Error: &s.Error,
				StartedAt: &s.StartedAt, UpdatedAt: &s.UpdatedAt, Trace: &s.Trace}
		},
		Clone:  (*State).clone,
		Detail: func(*State) string { return "refine" },
		Event: func(id string, n explore.Note) Event {
			return Event{Type: n.Type, Synth: id, Status: n.Status, Point: n.Point,
				Source: n.Source, Feasible: n.Verdict, Trace: n.Trace, Progress: n.Progress}
		},
		Attach: e.attach,
	})
	return e
}

// StoreKind returns the store kind synthesis checkpoints are written
// under; stores backing an Engine should pin it.
func StoreKind() string { return stateKind }

// Start registers and launches the synthesis described by space,
// returning a snapshot of its state. Syntheses are content-addressed:
// starting a space whose fingerprint matches a live synthesis returns
// that synthesis, and one matching a checkpoint in the store resumes or
// returns it (completed syntheses are served from their stored state
// without re-running anything).
func (e *Engine) Start(space *Space) (State, error) {
	if err := space.Validate(); err != nil {
		return State{}, err
	}
	id := space.Fingerprint()
	return e.Engine.Start(id, func() *State {
		return &State{Version: stateVersion, ID: id, Name: space.Name, Status: StatusRunning, Space: space}
	}), nil
}

// Metrics returns a snapshot of the synthesis-level counters.
func (e *Engine) Metrics() EngineMetrics {
	return EngineMetrics{
		Metrics:          e.Engine.Metrics(),
		BoxesClassified:  e.boxesClassified.Load(),
		Splits:           e.splits.Load(),
		BisectIterations: e.bisectIterations.Load(),
	}
}

// Synthesis is the per-synthesis half of one registered run: the
// refinement driving it and the indices over its evaluated points. The
// indices, region and state belong to the run's lock.
type Synthesis struct {
	*explore.Run[State, Event]
	eng   *Engine
	space *Space
	state *State

	completed map[string]*PointRec // config fingerprint → recorded result
	verdict   map[string]bool      // idxKey → feasible, the refiner's oracle view
	region    *Region              // the cover, once the refinement returns
}

// attach indexes the recorded points. Refinement-derived state (region,
// box counters) of a running checkpoint is reset: a resumed synthesis
// re-derives the deterministic refinement from scratch, with every
// recorded point answering from the checkpoint instead of the pool.
func (e *Engine) attach(r *explore.Run[State, Event], st *State) explore.Explorer {
	s := &Synthesis{
		Run:       r,
		eng:       e,
		space:     st.Space,
		state:     st,
		completed: make(map[string]*PointRec, len(st.Points)),
		verdict:   make(map[string]bool, len(st.Points)),
	}
	for i := range st.Points {
		pr := &st.Points[i]
		s.completed[pr.Fingerprint] = pr
		s.verdict[idxKey(pr.Idx)] = pr.Feasible
	}
	if st.Status == StatusRunning {
		st.Region = nil
		st.Counts.BoxesFeasible = 0
		st.Counts.BoxesInfeasible = 0
		st.Counts.BoxesBoundary = 0
		st.Counts.Splits = 0
		st.Counts.BisectIterations = 0
	}
	return s
}

// Explore runs the refinement to a complete cover.
func (s *Synthesis) Explore(ctx context.Context) error {
	region, err := s.refine(ctx, s.space)
	s.Update(func(*State) { s.region = region })
	return err
}

// Finish attaches the cover, stamped with the terminal status.
func (s *Synthesis) Finish(status string) {
	if r := s.region; r != nil {
		r.Status = status
		r.Error = s.state.Error
		r.Counts = s.state.Counts
		s.state.Region = r
	}
}

// Progress counts evaluations against the space's budget.
func (s *Synthesis) Progress() (done, total, par int) {
	return s.state.Counts.Evaluations, s.space.maxPoints(), 1
}

// feasibleAt returns the recorded verdict at a lattice point, if any.
func (s *Synthesis) feasibleAt(idx []int) (f, ok bool) {
	s.Update(func(*State) { f, ok = s.verdict[idxKey(idx)] })
	return f, ok
}

// evaluate answers lattice points through the kernel, space.parallel() at
// a time, skipping duplicates and points with a recorded verdict. Points
// whose configuration fingerprint is already recorded — from the resumed
// checkpoint, or an earlier point whose target values aliased to the
// same configuration — answer from the state without touching the pool.
// Failed runs are retried briefly and then abort the synthesis: a region
// derived around a hole would be silently wrong.
func (s *Synthesis) evaluate(ctx context.Context, space *Space, pts ...[]int) error {
	seen := make(map[string]bool, len(pts))
	var work [][]int
	for _, p := range pts {
		k := idxKey(p)
		if _, ok := s.feasibleAt(p); ok || seen[k] {
			continue
		}
		seen[k] = true
		work = append(work, p)
	}
	return s.Evaluate(ctx, explore.Batch{
		N:     len(work),
		Par:   space.parallel(),
		Retry: explore.Retry{Attempts: pointRetries, Backoff: pointRetryBackoff},
		Prepare: func(i int) (explore.Point, error) {
			sys, err := space.Materialize(work[i])
			if err != nil {
				return explore.Point{}, err
			}
			return explore.Point{Key: idxKey(work[i]), Sys: sys, FP: sys.Fingerprint()}, nil
		},
		Hit: func(i int, p explore.Point) (explore.Result, bool, bool) {
			pr := s.completed[p.FP]
			if pr == nil {
				return explore.Result{}, false, false
			}
			// A hit at lattice coordinates not yet recorded is appended as
			// a SourceCheckpoint point.
			rec := *pr
			rec.Idx = append([]int(nil), work[i]...)
			rec.Values = space.values(work[i])
			_, known := s.verdict[p.Key]
			if !known {
				rec.Source = SourceCheckpoint
				rec.ElapsedNS = 0
				s.state.Points = append(s.state.Points, rec)
				s.verdict[p.Key] = rec.Feasible
				s.state.Counts.Evaluations++
				s.state.Counts.Checkpoint++
			}
			return explore.Result{Source: rec.Source, Feasible: rec.Feasible, Trace: rec.Trace}, !known, true
		},
		Admit: func() error {
			if s.state.Counts.Evaluations >= space.maxPoints() {
				return fmt.Errorf("synth: evaluation budget of %d points exhausted", space.maxPoints())
			}
			return nil
		},
		Record: func(i int, p explore.Point, res explore.Result) error {
			if res.Source == explore.SourceFailed {
				return fmt.Errorf("synth: point %s failed: %s", p.Key, res.Error)
			}
			s.record(PointRec{Idx: append([]int(nil), work[i]...), Values: space.values(work[i]), Fingerprint: p.FP,
				Feasible: res.Feasible, Source: res.Source, ElapsedNS: res.ElapsedNS, Trace: res.Trace,
				Postmortem: res.Postmortem}, res)
			return nil
		},
	})
}

// record appends an evaluated point to the state. Callers hold the run's
// lock.
func (s *Synthesis) record(pr PointRec, res explore.Result) {
	st := s.state
	if pr.Source == SourceComputed {
		key := idxKey(pr.Idx)
		st.Stragglers = explore.Rank(st.Stragglers,
			Straggler{Idx: pr.Idx, Values: pr.Values, Trace: pr.Trace, ElapsedNS: pr.ElapsedNS, Phases: res.Phases},
			func(s *Straggler) int64 { return s.ElapsedNS },
			func(s *Straggler) bool { return idxKey(s.Idx) == key })
	}
	st.Points = append(st.Points, pr)
	s.completed[pr.Fingerprint] = &st.Points[len(st.Points)-1]
	s.verdict[idxKey(pr.Idx)] = pr.Feasible
	st.Counts.Evaluations++
	switch pr.Source {
	case SourceComputed:
		st.Counts.EngineRuns++
	case SourceMemory:
		st.Counts.CacheMemory++
	case SourceDisk:
		st.Counts.CacheDisk++
	}
}
