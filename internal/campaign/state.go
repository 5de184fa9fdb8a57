package campaign

import "stopwatchsim/internal/explore"

// Campaign state and its export forms. The State document is the
// campaign's checkpoint: it is written to the artifact store after every
// completed point, so a campaign interrupted by a crash resumes from
// exactly the set of points it had finished. The Summary is the export
// schema of GET /v1/campaigns/{id}/result and `campaign export`, pinned
// by a golden file like the trace export contracts.

// Campaign statuses, the kernel's.
const (
	StatusRunning  = explore.StatusRunning
	StatusDone     = explore.StatusDone
	StatusFailed   = explore.StatusFailed
	StatusCanceled = explore.StatusCanceled
)

// Point sources: where a point's verdict came from.
const (
	SourceComputed   = explore.SourceComputed   // a fresh engine run
	SourceMemory     = explore.SourceMemory     // the pool's in-memory result cache
	SourceDisk       = explore.SourceDisk       // the persistent store tier
	SourceCheckpoint = explore.SourceCheckpoint // the campaign's own resumed state
	SourceFailed     = explore.SourceFailed     // the run failed (Error holds why)
)

// stateVersion tags the checkpoint document schema.
const stateVersion = "campaign/state/v1"

// stateKind is the store kind of campaign checkpoints; it is pinned
// (exempt from GC) so checkpoint state survives any volume of outcomes.
const stateKind = "campaign"

// PointResult is the recorded verdict at one evaluated point.
type PointResult struct {
	Point       Point  `json:"point"`
	Fingerprint string `json:"fingerprint"`
	Schedulable bool   `json:"schedulable"`
	Source      string `json:"source"`
	Error       string `json:"error,omitempty"`
	ElapsedNS   int64  `json:"elapsed_ns"`
	// Trace is the W3C traceparent of the point's span when the pool runs
	// with tracing enabled, linking the point to its span tree under
	// GET /v1/traces/{id}. Postmortem names the flight-recorder dump a
	// dump-worthy failure left behind (GET /v1/jobs/{key}/postmortem).
	Trace      string `json:"trace,omitempty"`
	Postmortem string `json:"postmortem,omitempty"`
}

// Straggler is one of the slowest computed points of the exploration so
// far: its coordinates, trace link and per-phase time breakdown — the
// ops-view answer to "where did the campaign's wall time go".
type Straggler struct {
	Point     Point            `json:"point"`
	Trace     string           `json:"trace,omitempty"`
	ElapsedNS int64            `json:"elapsed_ns"`
	Phases    map[string]int64 `json:"phases,omitempty"`
}

// BracketPair is the bisection's final bracket: the largest value proven
// schedulable and the smallest proven unschedulable. It localizes the
// breakdown boundary to one tol-wide interval — the pair of witness runs
// behind a Critical value. Either side may be absent: an interval that is
// entirely unschedulable has no feasible witness, an entirely schedulable
// one no infeasible witness.
type BracketPair struct {
	Feasible   *float64 `json:"feasible,omitempty"`
	Infeasible *float64 `json:"infeasible,omitempty"`
}

// FrontierRow is one row of the schedulability frontier: the critical
// (largest schedulable) value of the bisected axis at one row-axis value,
// nil when nothing at or above the axis minimum is schedulable.
type FrontierRow struct {
	Row         float64      `json:"row"`
	Critical    *float64     `json:"critical,omitempty"`
	Bracket     *BracketPair `json:"bracket,omitempty"`
	Evaluations int          `json:"evaluations"`
}

// Converge counts strategy work: how many oracle runs the exploration
// needed and how much the adaptive machinery saved.
type Converge struct {
	// Evaluations counts points submitted to the pool (including cache
	// hits of either tier); CheckpointHits counts points answered from the
	// campaign's own resumed state without touching the pool.
	Evaluations    int `json:"evaluations"`
	CheckpointHits int `json:"checkpoint_hits"`
	// BisectIterations counts interior bisection steps (excluding bound
	// probes); FrontierRows counts completed frontier rows; BracketReuses
	// counts rows whose bracket was seeded from the previous row's
	// critical point.
	BisectIterations int `json:"bisect_iterations"`
	FrontierRows     int `json:"frontier_rows"`
	BracketReuses    int `json:"bracket_reuses"`
	// Failed counts points currently recorded failed (quarantined); a
	// point healed by a later re-evaluation no longer counts. Retries
	// counts failed attempts that were retried before their point settled.
	Failed  int `json:"failed_points"`
	Retries int `json:"retries,omitempty"`
}

// State is the full campaign record: the checkpoint document and the body
// of GET /v1/campaigns/{id}.
type State struct {
	Version  string `json:"version"`
	ID       string `json:"id"`
	Name     string `json:"name"`
	Strategy string `json:"strategy"`
	Status   string `json:"status"`
	Spec     *Spec  `json:"spec"`

	// Points are the evaluated points in completion order.
	Points []PointResult `json:"points,omitempty"`

	// Critical is the bisect strategy's result: the largest schedulable
	// value of the axis, nil when even the minimum is unschedulable.
	// Bracket carries the witness pair behind it.
	Critical *float64     `json:"critical,omitempty"`
	Bracket  *BracketPair `json:"bracket,omitempty"`
	// Frontier is the frontier strategy's result table, one row per
	// row-axis grid value.
	Frontier []FrontierRow `json:"frontier,omitempty"`

	Error       string   `json:"error,omitempty"`
	Convergence Converge `json:"convergence"`
	StartedAt   string   `json:"started_at,omitempty"`
	UpdatedAt   string   `json:"updated_at,omitempty"`

	// Trace is the exploration's root traceparent when the pool runs with
	// tracing enabled; every point span is a child of it. Persisted so a
	// resumed campaign keeps extending the same trace.
	Trace string `json:"traceparent,omitempty"`
	// Stragglers are the slowest computed points so far (worst first),
	// maintained live for the ops view.
	Stragglers []Straggler `json:"stragglers,omitempty"`
}

// clone returns a snapshot safe to hand out concurrently with mutation.
func (s *State) clone() State {
	out := *s
	out.Points = append([]PointResult(nil), s.Points...)
	out.Frontier = append([]FrontierRow(nil), s.Frontier...)
	out.Stragglers = append([]Straggler(nil), s.Stragglers...)
	return out
}

// summarySchemaVersion tags the Summary JSON schema, pinned by
// testdata/summary.json.golden.
const summarySchemaVersion = "campaign/summary/v1"

// PointCounts breaks the evaluated points down by verdict and by where
// each verdict came from.
type PointCounts struct {
	Total         int `json:"total"`
	Schedulable   int `json:"schedulable"`
	Unschedulable int `json:"unschedulable"`
	Computed      int `json:"computed"`
	CacheMemory   int `json:"cache_memory"`
	CacheDisk     int `json:"cache_disk"`
	Checkpoint    int `json:"checkpoint"`
	Failed        int `json:"failed"`
}

// Summary is the campaign result export: identity, point accounting, the
// strategy's conclusion (critical point or frontier table) and the
// convergence counters.
type Summary struct {
	SchemaVersion string `json:"schema_version"`
	ID            string `json:"id"`
	Name          string `json:"name"`
	Strategy      string `json:"strategy"`
	Status        string `json:"status"`
	Error         string `json:"error,omitempty"`

	Points      PointCounts   `json:"points"`
	Critical    *float64      `json:"critical,omitempty"`
	Bracket     *BracketPair  `json:"bracket,omitempty"`
	Frontier    []FrontierRow `json:"frontier,omitempty"`
	Convergence Converge      `json:"convergence"`
}

// Summarize builds the export summary of a state snapshot.
func (s *State) Summarize() *Summary {
	sum := &Summary{
		SchemaVersion: summarySchemaVersion,
		ID:            s.ID,
		Name:          s.Name,
		Strategy:      s.Strategy,
		Status:        s.Status,
		Error:         s.Error,
		Critical:      s.Critical,
		Bracket:       s.Bracket,
		Frontier:      s.Frontier,
		Convergence:   s.Convergence,
	}
	for i := range s.Points {
		p := &s.Points[i]
		sum.Points.Total++
		switch p.Source {
		case SourceComputed:
			sum.Points.Computed++
		case SourceMemory:
			sum.Points.CacheMemory++
		case SourceDisk:
			sum.Points.CacheDisk++
		case SourceCheckpoint:
			sum.Points.Checkpoint++
		case SourceFailed:
			sum.Points.Failed++
			continue
		}
		if p.Schedulable {
			sum.Points.Schedulable++
		} else {
			sum.Points.Unschedulable++
		}
	}
	return sum
}
