package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"

	"stopwatchsim/internal/explore"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/store"
)

// Engine errors.
var (
	// ErrUnknownCampaign is returned for IDs the registry does not hold.
	ErrUnknownCampaign = errors.New("campaign: unknown campaign")
)

// Engine orchestrates campaigns on the exploration kernel: the kernel
// owns the registry, checkpoints, point evaluation and the ops view; the
// campaign strategies are its point generators.
type Engine struct {
	*explore.Engine[State, Event]

	bisectIterations, frontierRows, bracketReuses atomic.Int64
}

// EngineMetrics are the campaign-level telemetry counters, exposed by
// cmd/saserve as the saserve_campaign_* metric families.
type EngineMetrics struct {
	explore.Metrics

	BisectIterations int64 `json:"bisect_iterations"`
	FrontierRows     int64 `json:"frontier_rows"`
	BracketReuses    int64 `json:"bracket_reuses"`
}

// Event is one record on a campaign's live event stream (the body of the
// GET /v1/campaigns/{id}/events SSE endpoint).
type Event struct {
	// Type is "point" (a point settled), "quarantine" (a point exhausted
	// its retries) or "status" (the campaign reached a terminal state).
	Type     string `json:"type"`
	Campaign string `json:"campaign"`
	Status   string `json:"status,omitempty"`

	// Point fields, set on point/quarantine events.
	Point       string `json:"point,omitempty"`
	Source      string `json:"source,omitempty"`
	Schedulable bool   `json:"schedulable,omitempty"`
	Trace       string `json:"traceparent,omitempty"`

	// Progress against the known total: grid strategies know it, the
	// others are open-ended (Total 0).
	explore.Progress
}

// NewEngine creates an engine over the pool, checkpointing to st (nil
// disables persistence). The logger may be nil.
func NewEngine(pool *jobs.Pool, st *store.Store, lg *slog.Logger) *Engine {
	e := &Engine{}
	e.Engine = explore.New(pool, st, lg, explore.Kind[State, Event]{
		Name:    stateKind,
		Noun:    "campaign",
		Unknown: ErrUnknownCampaign,
		Valid:   func(s *State) bool { return s.Version == stateVersion && s.Spec != nil },
		Header: func(s *State) explore.Header {
			return explore.Header{ID: &s.ID, Name: &s.Name, Status: &s.Status, Error: &s.Error,
				StartedAt: &s.StartedAt, UpdatedAt: &s.UpdatedAt, Trace: &s.Trace}
		},
		Clone:  (*State).clone,
		Detail: func(s *State) string { return s.Strategy },
		Event: func(id string, n explore.Note) Event {
			return Event{Type: n.Type, Campaign: id, Status: n.Status, Point: n.Point,
				Source: n.Source, Schedulable: n.Verdict, Trace: n.Trace, Progress: n.Progress}
		},
		Attach: e.attach,
	})
	return e
}

// StoreKind returns the store kind campaign checkpoints are written
// under; stores backing an Engine should pin it.
func StoreKind() string { return stateKind }

// Start registers and launches the campaign described by spec, returning
// a snapshot of its state. Campaigns are content-addressed: starting a
// spec whose fingerprint matches a live campaign returns that campaign,
// and one matching a checkpoint in the store resumes or returns it
// (completed campaigns are served from their stored state without
// re-running anything).
func (e *Engine) Start(spec *Spec) (State, error) {
	if err := spec.Validate(); err != nil {
		return State{}, err
	}
	id := spec.Fingerprint()
	return e.Engine.Start(id, func() *State {
		return &State{Version: stateVersion, ID: id, Name: spec.Name, Strategy: spec.Strategy,
			Status: StatusRunning, Spec: spec}
	}), nil
}

// Metrics returns a snapshot of the campaign-level counters.
func (e *Engine) Metrics() EngineMetrics {
	return EngineMetrics{
		Metrics:          e.Engine.Metrics(),
		BisectIterations: e.bisectIterations.Load(),
		FrontierRows:     e.frontierRows.Load(),
		BracketReuses:    e.bracketReuses.Load(),
	}
}

// Campaign is the per-campaign half of one registered run: the strategy
// driving it and the indices over its recorded points. The indices and
// state belong to the run's lock.
type Campaign struct {
	*explore.Run[State, Event]
	eng   *Engine
	spec  *Spec
	state *State
	total int // grid point count, 0 when open-ended

	completed map[string]*PointResult // fingerprint → recorded result
	recorded  map[string]bool         // Point.Key() → present in state.Points
	failedAt  map[string]int          // Point.Key() → index of a quarantined record
}

func (e *Engine) attach(r *explore.Run[State, Event], st *State) explore.Explorer {
	c := &Campaign{
		Run:       r,
		eng:       e,
		spec:      st.Spec,
		state:     st,
		completed: make(map[string]*PointResult, len(st.Points)),
		recorded:  make(map[string]bool, len(st.Points)),
		failedAt:  make(map[string]int),
	}
	if st.Spec.Strategy == StrategyGrid {
		c.total = st.Spec.gridSize()
	}
	for i := range st.Points {
		pr := &st.Points[i]
		if pr.Source != SourceFailed {
			c.completed[pr.Fingerprint] = pr
		} else {
			// Quarantined points are re-evaluated on resume; remember where
			// their stale record sits so a fresh result overwrites it in
			// place instead of appending a duplicate.
			c.failedAt[pr.Point.Key()] = i
		}
		c.recorded[pr.Point.Key()] = true
	}
	return c
}

// Explore runs the campaign's strategy.
func (c *Campaign) Explore(ctx context.Context) error {
	switch c.spec.Strategy {
	case StrategyGrid:
		return c.runGrid(ctx)
	case StrategyBisect:
		return c.runBisect(ctx)
	case StrategyFrontier:
		return c.runFrontier(ctx)
	}
	return fmt.Errorf("campaign: unknown strategy %q", c.spec.Strategy)
}

// Finish has nothing to fold in: strategies record their results as
// they go.
func (c *Campaign) Finish(string) {}

// Progress counts recorded points against the grid total.
func (c *Campaign) Progress() (done, total, par int) {
	return len(c.state.Points), c.total, c.spec.parallel()
}

// evaluate answers pts through the kernel, par at a time, and returns
// each point's recorded result (a quarantined point has Source
// SourceFailed). Points already recorded — from the resumed checkpoint,
// or from an earlier point of this run that materialized to the same
// configuration — answer from the state without touching the pool.
func (c *Campaign) evaluate(ctx context.Context, pts []Point, par int) ([]PointResult, error) {
	out := make([]PointResult, len(pts))
	err := c.Evaluate(ctx, explore.Batch{
		N:     len(pts),
		Par:   par,
		Retry: explore.Retry{Attempts: c.spec.retries(), Backoff: c.spec.retryBackoff()},
		Prepare: func(i int) (explore.Point, error) {
			sys, err := Materialize(c.spec, pts[i])
			if err != nil {
				return explore.Point{}, err
			}
			return explore.Point{Key: pts[i].Key(), Sys: sys, FP: sys.Fingerprint()}, nil
		},
		Hit: func(i int, p explore.Point) (explore.Result, bool, bool) {
			pr := c.completed[p.FP]
			if pr == nil {
				return explore.Result{}, false, false
			}
			c.state.Convergence.CheckpointHits++
			out[i] = *pr
			out[i].Point = pts[i]
			// A hit at coordinates not yet in the state is recorded as a
			// SourceCheckpoint point, so grid summaries cover every grid
			// point even when several alias one configuration.
			fresh := !c.recorded[p.Key]
			if fresh {
				out[i].Source = SourceCheckpoint
				out[i].ElapsedNS = 0
				c.state.Points = append(c.state.Points, out[i])
				c.recorded[p.Key] = true
			}
			return explore.Result{Source: out[i].Source, Feasible: out[i].Schedulable, Trace: out[i].Trace}, fresh, true
		},
		Record: func(i int, p explore.Point, res explore.Result) error {
			out[i] = PointResult{Point: pts[i], Fingerprint: p.FP, Schedulable: res.Feasible, Source: res.Source,
				Error: res.Error, ElapsedNS: res.ElapsedNS, Trace: res.Trace, Postmortem: res.Postmortem}
			c.record(&out[i], res)
			return nil
		},
	})
	return out, err
}

// record appends a settled point to the state, or — for a re-evaluation
// of a quarantined point (resume, or a checkpointed retry) — overwrites
// its stale failed record in place, so the state never holds two records
// for one point. A successful result heals the point; another failure
// just refreshes the error. Callers hold the run's lock.
func (c *Campaign) record(pr *PointResult, res explore.Result) {
	st := c.state
	st.Convergence.Evaluations++
	st.Convergence.Retries += res.Retries
	key := pr.Point.Key()
	if pr.Source == SourceComputed {
		st.Stragglers = explore.Rank(st.Stragglers,
			Straggler{Point: pr.Point, Trace: pr.Trace, ElapsedNS: pr.ElapsedNS, Phases: res.Phases},
			func(s *Straggler) int64 { return s.ElapsedNS },
			func(s *Straggler) bool { return s.Point.Key() == key })
	}
	if idx, stale := c.failedAt[key]; stale {
		st.Points[idx] = *pr
		if pr.Source != SourceFailed {
			delete(c.failedAt, key)
			st.Convergence.Failed--
			c.completed[pr.Fingerprint] = &st.Points[idx]
		}
		return
	}
	st.Points = append(st.Points, *pr)
	c.recorded[key] = true
	if pr.Source == SourceFailed {
		st.Convergence.Failed++
		c.failedAt[key] = len(st.Points) - 1
	} else {
		c.completed[pr.Fingerprint] = &st.Points[len(st.Points)-1]
	}
}
