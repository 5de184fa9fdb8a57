// Package campaign turns single-configuration schedulability runs into
// persistent, resumable design-space explorations. The paper's result —
// one deterministic NSA interpretation decides one configuration — makes a
// configuration space a pure function landscape, and a campaign is a
// strategy for mapping it: an exhaustive grid, a breakdown binary search
// for the critical value of one parameter (the classic WCET-scaling
// sensitivity search, generalized to any scalar axis; cmd/sensitivity is
// its front end), or an adaptive frontier bisection tracing the
// schedulable/unschedulable boundary across two parameters, as in
// parametric schedulability analyses of avionics systems (PAPERS.md:
// André et al., Han et al.).
//
// Campaign identity is content-addressed: Spec.Fingerprint hashes the
// semantically significant fields (mirroring config.Fingerprint), so the
// same exploration resubmitted — or resumed after a crash from the
// artifact store — is the same campaign, and every evaluated point is
// keyed by its configuration fingerprint and shared with the service's
// two-tier result cache.
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/explore"
)

// Strategy names.
const (
	// StrategyGrid evaluates the full cross product of the axes' grids.
	StrategyGrid = "grid"
	// StrategyBisect binary-searches one axis for the largest schedulable
	// value (breakdown analysis), assuming schedulability is monotone
	// non-increasing in the axis value.
	StrategyBisect = "bisect"
	// StrategyFrontier grids the first axis and bisects the second per
	// row, seeding each row's bracket from the previous row's critical
	// point, producing the schedulability frontier table.
	StrategyFrontier = "frontier"
)

// Parameter names an axis can vary.
const (
	// ParamWCETPct scales every WCET of the base system to v percent: the
	// config.TargetWCETPct target, under the same spelling. Requires Base.
	ParamWCETPct = config.TargetWCETPct
	// ParamUtil synthesizes a UUniFast task set with total utilization v
	// (internal/gen). Requires Generator.
	ParamUtil = "util"
	// ParamTasks synthesizes a UUniFast task set with round(v) tasks.
	// Requires Generator.
	ParamTasks = "tasks"
	// ParamQuantum sets the round-robin quantum of every RR partition of
	// the base system to round(v) ticks: one config.TargetQuantum target
	// per RR partition. Requires Base.
	ParamQuantum = "quantum"
)

// TargetPrefix marks an axis that varies one named configuration field
// through config.ParamTarget: "target:" followed by a target spelling,
// e.g. "target:wcet:P1.edf_t1" or "target:offset:P2". Target axes require
// Base and share their materialization with synthesis spaces
// (internal/synth), so a campaign grid and a synthesized region over the
// same targets classify the same concrete configurations.
const TargetPrefix = "target:"

// Axis is one explored parameter dimension.
type Axis struct {
	// Param names the varied parameter (Param* constants).
	Param string `json:"param"`
	// Min and Max bound the explored interval, inclusive.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Step is the grid spacing for grid axes (grid strategy, and the row
	// axis of frontier). Required > 0 there, ignored for bisected axes.
	Step float64 `json:"step,omitempty"`
	// Tol is the resolution a bisected axis converges to (bisect strategy,
	// and the column axis of frontier); <= 0 means 1.
	Tol float64 `json:"tol,omitempty"`
}

// Generator parameterizes UUniFast task-set synthesis for axes that
// explore synthetic workloads (util, tasks).
type Generator struct {
	// Seed feeds the deterministic RNG; the same spec always explores the
	// same configurations.
	Seed int64 `json:"seed"`
	// Tasks is the task count when no "tasks" axis varies it.
	Tasks int `json:"tasks,omitempty"`
	// Util is the total utilization when no "util" axis varies it.
	Util float64 `json:"util,omitempty"`
	// Periods is the period set tasks draw from.
	Periods []int64 `json:"periods"`
}

// Spec is a campaign specification, the JSON body of POST /v1/campaigns
// and the input of `campaign run`.
type Spec struct {
	// Name labels the campaign for humans; it participates in the
	// fingerprint (two same-shaped explorations under different names are
	// different campaigns).
	Name string `json:"name"`
	// Strategy selects the exploration strategy (Strategy* constants).
	Strategy string `json:"strategy"`
	// Base is the system configuration that parameter axes mutate.
	// Required by wcet_pct and quantum axes.
	Base *config.System `json:"base,omitempty"`
	// Generator parameterizes synthetic task sets. Required by util and
	// tasks axes.
	Generator *Generator `json:"generator,omitempty"`
	// Axes are the explored dimensions: grid takes 1–3 grid axes, bisect
	// exactly 1 bisected axis, frontier a grid row axis then a bisected
	// column axis.
	Axes []Axis `json:"axes"`
	// Parallel bounds in-flight evaluations for fan-out strategies; <= 0
	// means 4. Execution detail: not part of the fingerprint.
	Parallel int `json:"parallel,omitempty"`
	// MaxPoints bounds the total number of evaluated points as a safety
	// rail; <= 0 means 10000.
	MaxPoints int `json:"max_points,omitempty"`
	// Retries bounds re-evaluation attempts of a failed point before it is
	// quarantined — recorded failed and (for grid) skipped; 0 means 2,
	// negative disables retries. RetryBackoffMS is the backoff before the
	// first retry, doubling per attempt; <= 0 means 50ms. Execution
	// details: not part of the fingerprint.
	Retries        int `json:"retries,omitempty"`
	RetryBackoffMS int `json:"retry_backoff_ms,omitempty"`
}

const defaultMaxPoints = 10000

// Validation errors. Both are detected before any axis is expanded or
// bisected, so rejecting an oversize or non-advancing spec costs the same at
// any declared size.
var (
	ErrGridTooLarge = errors.New("exceeds max_points")
	ErrStepTooSmall = errors.New("does not advance")
)

// ParseSpec decodes and validates a campaign spec from JSON.
func ParseSpec(r io.Reader) (*Spec, error) {
	return ParseSpecBase(r, nil)
}

// ParseSpecBase decodes a spec and, when the spec itself carries no base
// system, injects the one base() loads (e.g. from an XML configuration
// file) before validating. base may be nil or return (nil, nil) to inject
// nothing.
func ParseSpecBase(r io.Reader, base func() (*config.System, error)) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("campaign: decoding spec: %w", err)
	}
	if s.Base == nil && base != nil {
		sys, err := base()
		if err != nil {
			return nil, fmt.Errorf("campaign: loading base system: %w", err)
		}
		s.Base = sys
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the spec's internal consistency: strategy arity, axis
// bounds, parameter requirements, and the worst-case point count of every
// strategy against MaxPoints.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: spec needs a name")
	}
	switch s.Strategy {
	case StrategyGrid:
		if len(s.Axes) < 1 || len(s.Axes) > 3 {
			return fmt.Errorf("campaign: grid takes 1–3 axes, got %d", len(s.Axes))
		}
		for i := range s.Axes {
			if err := s.checkAxis(&s.Axes[i], true); err != nil {
				return err
			}
		}
		// Counted, never expanded: an untrusted spec may declare any size.
		n := 1.0
		for i := range s.Axes {
			n *= s.Axes[i].gridCells()
		}
		if !(n <= float64(s.maxPoints())) {
			return fmt.Errorf("campaign: grid of %.0f points %w %d", n, ErrGridTooLarge, s.maxPoints())
		}
	case StrategyBisect:
		if len(s.Axes) != 1 {
			return fmt.Errorf("campaign: bisect takes exactly 1 axis, got %d", len(s.Axes))
		}
		if err := s.checkAxis(&s.Axes[0], false); err != nil {
			return err
		}
		if n := s.Axes[0].bisectCost(); !(n <= float64(s.maxPoints())) {
			return fmt.Errorf("campaign: bisection of up to %.0f points %w %d", n, ErrGridTooLarge, s.maxPoints())
		}
	case StrategyFrontier:
		if len(s.Axes) != 2 {
			return fmt.Errorf("campaign: frontier takes a row axis and a bisected axis, got %d", len(s.Axes))
		}
		if err := s.checkAxis(&s.Axes[0], true); err != nil {
			return err
		}
		if err := s.checkAxis(&s.Axes[1], false); err != nil {
			return err
		}
		// Each row bisects the column axis after one seeding probe.
		if n := s.Axes[0].gridCells() * (s.Axes[1].bisectCost() + 1); !(n <= float64(s.maxPoints())) {
			return fmt.Errorf("campaign: frontier of up to %.0f points %w %d", n, ErrGridTooLarge, s.maxPoints())
		}
	case "":
		return fmt.Errorf("campaign: spec needs a strategy (grid, bisect, frontier)")
	default:
		return fmt.Errorf("campaign: unknown strategy %q", s.Strategy)
	}
	if s.Base != nil {
		if err := s.Base.Validate(); err != nil {
			return fmt.Errorf("campaign: base system: %w", err)
		}
	}
	if s.Generator != nil {
		if len(s.Generator.Periods) == 0 {
			return fmt.Errorf("campaign: generator needs a non-empty period set")
		}
		for _, p := range s.Generator.Periods {
			if p < 1 {
				return fmt.Errorf("campaign: generator period %d is not positive", p)
			}
		}
	}
	return nil
}

// checkAxis validates one axis; grid selects grid-axis rules (Step) over
// bisected-axis rules (Tol). Base-system axes resolve to their
// config.ParamTargets (axisTargets), the same ones Materialize applies.
func (s *Spec) checkAxis(a *Axis, grid bool) error {
	switch a.Param {
	case ParamUtil, ParamTasks:
		if s.Generator == nil {
			return fmt.Errorf("campaign: axis %q requires a generator", a.Param)
		}
		if a.Min <= 0 {
			return fmt.Errorf("campaign: axis %q minimum %g must be positive", a.Param, a.Min)
		}
		return s.checkAxisBounds(a, grid)
	case ParamWCETPct, ParamQuantum:
	case "":
		return fmt.Errorf("campaign: axis needs a param")
	default:
		if !strings.HasPrefix(a.Param, TargetPrefix) {
			return fmt.Errorf("campaign: unknown axis param %q", a.Param)
		}
	}
	if s.Base == nil {
		return fmt.Errorf("campaign: axis %q requires a base system", a.Param)
	}
	ts, err := axisTargets(a.Param, s.Base)
	if err != nil {
		return fmt.Errorf("campaign: axis %q: %w", a.Param, err)
	}
	// Every kind but offset has a floor of 1; a quantum axis over a base
	// without round-robin partitions resolves to no targets but keeps it.
	lowest := 1.0
	for _, t := range ts {
		if err := t.Check(s.Base); err != nil {
			return fmt.Errorf("campaign: axis %q: %w", a.Param, err)
		}
		lowest = t.MinValue()
	}
	if a.Min < lowest {
		return fmt.Errorf("campaign: axis %q minimum %g must be >= %g", a.Param, a.Min, lowest)
	}
	return s.checkAxisBounds(a, grid)
}

// checkAxisBounds validates the interval and spacing rules shared by every
// axis kind.
func (s *Spec) checkAxisBounds(a *Axis, grid bool) error {
	if a.Max < a.Min {
		return fmt.Errorf("campaign: axis %q has max %g < min %g", a.Param, a.Max, a.Min)
	}
	if grid && a.Step <= 0 {
		return fmt.Errorf("campaign: grid axis %q needs a positive step", a.Param)
	}
	if grid && (a.Min+a.Step == a.Min || a.Max+a.Step == a.Max) {
		// In float64, 1e16+1 == 1e16: expanding such an axis never ends.
		return fmt.Errorf("campaign: grid axis %q step %g %w its bounds", a.Param, a.Step, ErrStepTooSmall)
	}
	if !grid && a.Tol < 0 {
		return fmt.Errorf("campaign: bisected axis %q has negative tol", a.Param)
	}
	return nil
}

// gridValues expands a grid axis into its point values: Min, Min+Step, …
// capped at Max and at the arithmetic count, so float drift can never
// expand an axis past what validation counted.
func (a *Axis) gridValues() []float64 {
	var vs []float64
	for v, n := a.Min, a.gridCells(); v <= a.Max+1e-9 && float64(len(vs)) < n; v += a.Step {
		vs = append(vs, v)
	}
	return vs
}

// gridCells counts an axis's grid values arithmetically, without
// expanding it: +Inf for spans no float64 count covers.
func (a *Axis) gridCells() float64 {
	return math.Floor((a.Max+1e-9-a.Min)/a.Step) + 1
}

// bisectCost bounds the evaluations one bisection of a may take: both
// endpoints, plus at most ⌈log2((Max−Min)/tol)⌉+1 interior probes. Like
// gridCells it is +Inf for spans no float64 count covers.
func (a *Axis) bisectCost() float64 {
	n := 2.0
	if span := (a.Max - a.Min) / a.tol(); span > 1 {
		n += math.Ceil(math.Log2(span)) + 1
	}
	return n
}

// tol returns the bisection resolution, defaulting to 1.
func (a *Axis) tol() float64 {
	if a.Tol <= 0 {
		return 1
	}
	return a.Tol
}

// gridSize returns the number of points of a full grid over the axes.
func (s *Spec) gridSize() int {
	n := 1
	for i := range s.Axes {
		n *= len(s.Axes[i].gridValues())
	}
	return n
}

func (s *Spec) maxPoints() int {
	if s.MaxPoints <= 0 {
		return defaultMaxPoints
	}
	return s.MaxPoints
}

func (s *Spec) parallel() int {
	if s.Parallel <= 0 {
		return 4
	}
	return s.Parallel
}

// retries resolves the quarantine retry budget per failed point.
func (s *Spec) retries() int {
	switch {
	case s.Retries < 0:
		return 0
	case s.Retries == 0:
		return 2
	default:
		return s.Retries
	}
}

// retryBackoff resolves the base backoff before the first retry.
func (s *Spec) retryBackoff() time.Duration {
	if s.RetryBackoffMS <= 0 {
		return 50 * time.Millisecond
	}
	return time.Duration(s.RetryBackoffMS) * time.Millisecond
}

// fpVersion tags the canonical encoding of Spec.Fingerprint; bump it when
// the encoding (or the meaning of any encoded field) changes so stale
// campaign state cannot alias new campaigns.
const fpVersion = "stopwatchsim/campaign/v1"

// Fingerprint returns the stable content address of the campaign: the hex
// SHA-256 of a canonical encoding of every field that affects which
// configurations are explored and how the strategy interprets the
// results. Execution knobs (Parallel) are excluded, so rerunning the same
// exploration with different concurrency resumes the same campaign. The
// base system contributes through config.Fingerprint, keeping the two
// content-address schemes composable.
func (s *Spec) Fingerprint() string {
	e := explore.NewFingerprint()
	e.Str(fpVersion)
	e.Str(s.Name)
	e.Str(s.Strategy)
	if s.Base == nil {
		e.Str("")
	} else {
		e.Str(s.Base.Fingerprint())
	}
	if s.Generator == nil {
		e.List(-1)
	} else {
		g := s.Generator
		e.Num(g.Seed)
		e.Num(int64(g.Tasks))
		e.F64(g.Util)
		e.List(len(g.Periods))
		for _, p := range g.Periods {
			e.Num(p)
		}
	}
	e.List(len(s.Axes))
	for i := range s.Axes {
		a := &s.Axes[i]
		e.Str(a.Param)
		e.F64(a.Min)
		e.F64(a.Max)
		e.F64(a.Step)
		e.F64(a.Tol)
	}
	e.Num(int64(s.maxPoints()))
	return e.Sum()
}
