package synth

import "stopwatchsim/internal/explore"

// Synthesis state and its export forms. The State document is the
// checkpoint: written to the artifact store after every evaluated point,
// so a synthesis interrupted at any instant resumes from exactly the set
// of points it had evaluated — the refinement itself is re-derived
// deterministically with recorded points answering without the pool. The
// Region is the export schema of GET /v1/synth/{id}/region and `synth
// export`, pinned by a golden file; it deliberately carries no
// timestamps or durations, so the same space always exports byte-equal
// JSON.

// Synthesis statuses, the kernel's.
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
	SourceCheckpoint = explore.SourceCheckpoint // the synthesis's own resumed state
)

// Box verdicts.
const (
	VerdictFeasible   = "feasible"
	VerdictInfeasible = "infeasible"
	VerdictBoundary   = "boundary"
)

// stateVersion tags the checkpoint document schema.
const stateVersion = "synth/state/v1"

// stateKind is the store kind of synthesis checkpoints; it is pinned
// (exempt from GC) so checkpoint state survives any volume of outcomes.
const stateKind = "synth"

// PointRec is the recorded verdict at one evaluated lattice point.
type PointRec struct {
	// Idx is the lattice index vector; Values the parameter values it
	// maps to.
	Idx         []int     `json:"idx"`
	Values      []float64 `json:"values"`
	Fingerprint string    `json:"fingerprint"`
	Feasible    bool      `json:"feasible"`
	Source      string    `json:"source"`
	ElapsedNS   int64     `json:"elapsed_ns,omitempty"`
	// Trace is the W3C traceparent of the point's span when the pool runs
	// with tracing enabled; Postmortem names the flight-recorder dump a
	// dump-worthy failure left behind.
	Trace      string `json:"trace,omitempty"`
	Postmortem string `json:"postmortem,omitempty"`
}

// Straggler is one of the slowest computed points of the synthesis so
// far: its lattice coordinates, trace link and per-phase time breakdown.
type Straggler struct {
	Idx       []int            `json:"idx"`
	Values    []float64        `json:"values"`
	Trace     string           `json:"trace,omitempty"`
	ElapsedNS int64            `json:"elapsed_ns"`
	Phases    map[string]int64 `json:"phases,omitempty"`
}

// Counts accounts for synthesis work: where point verdicts came from and
// what the refinement did with them.
type Counts struct {
	// Evaluations counts distinct lattice points the refinement asked
	// for; EngineRuns the subset answered by a fresh engine interpretation
	// (the currency synth-vs-grid comparisons are made in). CacheMemory,
	// CacheDisk and Checkpoint count the tiers that answered the rest.
	Evaluations int `json:"evaluations"`
	EngineRuns  int `json:"engine_runs"`
	CacheMemory int `json:"cache_memory"`
	CacheDisk   int `json:"cache_disk"`
	Checkpoint  int `json:"checkpoint"`

	// Refinement counters: classified boxes by verdict, box splits, and
	// interior bisection iterations (1-D mode).
	BoxesFeasible    int `json:"boxes_feasible"`
	BoxesInfeasible  int `json:"boxes_infeasible"`
	BoxesBoundary    int `json:"boxes_boundary"`
	Splits           int `json:"splits"`
	BisectIterations int `json:"bisect_iterations"`
}

// State is the full synthesis record: the checkpoint document and the
// body of GET /v1/synth/{id}.
type State struct {
	Version string `json:"version"`
	ID      string `json:"id"`
	Name    string `json:"name"`
	Status  string `json:"status"`
	Space   *Space `json:"space"`

	// Points are the evaluated lattice points in completion order.
	Points []PointRec `json:"points,omitempty"`

	// Region is the synthesized cover, set when the refinement has run to
	// completion (Status done).
	Region *Region `json:"region,omitempty"`

	Error     string `json:"error,omitempty"`
	Counts    Counts `json:"counts"`
	StartedAt string `json:"started_at,omitempty"`
	UpdatedAt string `json:"updated_at,omitempty"`

	// Trace is the synthesis's root traceparent when the pool runs with
	// tracing enabled; every point span is a child of it. Persisted so a
	// resumed synthesis keeps extending the same trace.
	Trace string `json:"traceparent,omitempty"`
	// Stragglers are the slowest computed points so far (worst first),
	// maintained live for the ops view.
	Stragglers []Straggler `json:"stragglers,omitempty"`
}

// clone returns a snapshot safe to hand out concurrently with mutation.
func (s *State) clone() State {
	out := *s
	out.Points = append([]PointRec(nil), s.Points...)
	out.Stragglers = append([]Straggler(nil), s.Stragglers...)
	return out
}

// regionSchemaVersion tags the Region JSON schema, pinned by
// testdata/region.json.golden.
const regionSchemaVersion = "synth/region/v1"

// Box is one verdict-labelled sub-box of the cover, in parameter-value
// coordinates (inclusive bounds on the lattice vertices).
type Box struct {
	Min     []float64 `json:"min"`
	Max     []float64 `json:"max"`
	Verdict string    `json:"verdict"`
	// Cells is the box's cell volume, the unit coverage is measured in.
	Cells int64 `json:"cells"`
}

// Witness is a feasible/infeasible point pair straddling the boundary —
// the multi-dimensional generalization of the campaign bisect bracket.
// Each boundary box carries one.
type Witness struct {
	Feasible   []float64 `json:"feasible,omitempty"`
	Infeasible []float64 `json:"infeasible,omitempty"`
}

// Region is the synthesis result export: the box cover of the parameter
// space, its coverage fraction, and the boundary witnesses. The schema
// carries no timestamps, so a region is a pure function of its space —
// exports are byte-comparable across runs and machines.
type Region struct {
	SchemaVersion string `json:"schema_version"`
	ID            string `json:"id"`
	Name          string `json:"name"`
	Status        string `json:"status"`
	Error         string `json:"error,omitempty"`

	// Dims restates the explored dimensions (without the base system, so
	// exports stay small).
	Dims []Dim `json:"dims"`

	// Boxes is the cover in classification order: every cell of the
	// bounding box belongs to exactly one box.
	Boxes []Box `json:"boxes"`

	// TotalCells and DecidedCells measure the cover; Coverage is their
	// ratio (1 means every cell is classified, boundary cells count as
	// undecided).
	TotalCells   int64   `json:"total_cells"`
	DecidedCells int64   `json:"decided_cells"`
	Coverage     float64 `json:"coverage"`

	// Boundary carries one witness pair per boundary box, aligned with
	// the boundary boxes' order in Boxes.
	Boundary []Witness `json:"boundary,omitempty"`

	Counts Counts `json:"counts"`
}
