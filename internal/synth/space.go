// Package synth synthesizes feasible parameter regions: it promotes
// configuration fields (WCETs, periods, deadlines, offsets, window
// widths, quanta) to first-class symbolic parameters and maps the region
// of parameter space where the system stays schedulable, using the
// deterministic NSA interpretation as a point oracle. This is the
// parametric counterpart of internal/campaign: where a campaign explores
// an enumerated design space point by point, a synthesis *covers* a
// continuous box of parameter values with verdict-labelled sub-boxes,
// evaluating only the points the cover needs — the classical parameter
// synthesis workflow of the IMITATOR models in SNIPPETS.md, rebuilt on
// concrete-valued oracle runs over an integer lattice.
//
// A Space declares the symbolic dimensions: each names a config.ParamTarget
// (the same spellings campaign "target:" axes use) with inclusive bounds
// and a lattice resolution. Synthesis refines the bounding box:
//
//   - one dimension: exact breakdown bisection (the campaign bisect
//     algorithm), yielding a feasible prefix, an infeasible suffix and the
//     one lattice cell between them;
//   - several dimensions: recursive box refinement — evaluate a box's
//     2^d corners and its center; a box whose probes agree is classified
//     whole, a disagreeing box splits along its widest dimension at the
//     lattice midpoint (children share the split plane, so corner
//     evaluations are reused), and a disagreeing box of single-cell width
//     is an atomic boundary cell carrying a feasible/infeasible witness
//     pair.
//
// Corner classification is exact when feasibility is monotone in each
// dimension separately (in either direction per dimension) — true for
// WCET-like and period-like parameters under the paper's model, where a
// configuration dominated point-wise by a schedulable one is schedulable.
// The center probe is a cheap guard against non-monotone interiors: a
// center disagreeing with unanimous corners forces a split instead of a
// wrong whole-box verdict.
//
// Like campaigns, syntheses are content-addressed (Space.Fingerprint is
// the synthesis ID), checkpoint every evaluated point to the artifact
// store, and resume after a crash by re-deriving the deterministic
// refinement with recorded points answering instantly.
package synth

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/explore"
)

// Dim is one symbolic parameter dimension: a named configuration field
// with inclusive bounds and a lattice resolution.
type Dim struct {
	// Target is the config.ParamTarget spelling of the varied field, e.g.
	// "wcet:P1.t1" or "offset:P2".
	Target string `json:"target"`
	// Min and Max bound the explored interval, inclusive. Max-Min must be
	// a positive multiple of Res.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Res is the lattice spacing — the resolution the region is exact to;
	// <= 0 means 1.
	Res float64 `json:"res,omitempty"`
}

// res returns the lattice spacing, defaulting to 1.
func (d *Dim) res() float64 {
	if d.Res <= 0 {
		return 1
	}
	return d.Res
}

// cells returns the number of lattice cells along the dimension: the
// interval [Min, Max] holds cells+1 lattice values.
func (d *Dim) cells() int {
	return int(math.Round((d.Max - d.Min) / d.res()))
}

// value maps a lattice index to its parameter value.
func (d *Dim) value(k int) float64 {
	if k == d.cells() {
		return d.Max // exact upper bound, no accumulation error
	}
	return d.Min + float64(k)*d.res()
}

// Space is a synthesis specification: the symbolic parameter space over a
// base system, the JSON body of POST /v1/synth and the input of
// `synth run`.
type Space struct {
	// Name labels the synthesis for humans; it participates in the
	// fingerprint.
	Name string `json:"name"`
	// Base is the system configuration the dimensions parameterize.
	Base *config.System `json:"base,omitempty"`
	// Dims are the symbolic dimensions, 1–3 of them.
	Dims []Dim `json:"dims"`
	// Parallel bounds in-flight point evaluations; <= 0 means 4.
	// Execution detail: not part of the fingerprint.
	Parallel int `json:"parallel,omitempty"`
	// MaxPoints bounds the total number of evaluated points as a safety
	// rail; <= 0 means 10000. A synthesis that exhausts it fails rather
	// than report a partial region as complete.
	MaxPoints int `json:"max_points,omitempty"`
}

const defaultMaxPoints = 10000

// ParseSpace decodes and validates a synthesis space from JSON.
func ParseSpace(r io.Reader) (*Space, error) {
	return ParseSpaceBase(r, nil)
}

// ParseSpaceBase decodes a space and, when it carries no base system,
// injects the one base() loads before validating; base may be nil or
// return (nil, nil) to inject nothing.
func ParseSpaceBase(r io.Reader, base func() (*config.System, error)) (*Space, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	s := &Space{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("synth: decoding space: %w", err)
	}
	if s.Base == nil && base != nil {
		sys, err := base()
		if err != nil {
			return nil, fmt.Errorf("synth: loading base system: %w", err)
		}
		s.Base = sys
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the space: a name, a valid base, 1–3 well-formed
// distinct dimensions resolving against the base, and lattice geometry
// (bounds aligned to the resolution, at least one cell per dimension).
func (s *Space) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("synth: space needs a name")
	}
	if s.Base == nil {
		return fmt.Errorf("synth: space needs a base system")
	}
	if err := s.Base.Validate(); err != nil {
		return fmt.Errorf("synth: base system: %w", err)
	}
	if len(s.Dims) < 1 || len(s.Dims) > 3 {
		return fmt.Errorf("synth: space takes 1–3 dims, got %d", len(s.Dims))
	}
	seen := make(map[string]bool, len(s.Dims))
	volume := 1.0
	for i := range s.Dims {
		d := &s.Dims[i]
		t, err := config.ParseParamTarget(d.Target)
		if err != nil {
			return fmt.Errorf("synth: dim %d: %w", i, err)
		}
		if err := t.Check(s.Base); err != nil {
			return fmt.Errorf("synth: dim %d: %w", i, err)
		}
		if seen[d.Target] {
			return fmt.Errorf("synth: dim %d repeats target %q", i, d.Target)
		}
		seen[d.Target] = true
		if d.Min < t.MinValue() {
			return fmt.Errorf("synth: dim %q minimum %g must be >= %g", d.Target, d.Min, t.MinValue())
		}
		if d.Max <= d.Min {
			return fmt.Errorf("synth: dim %q has max %g <= min %g", d.Target, d.Max, d.Min)
		}
		res := d.res()
		span := d.Max - d.Min
		n := math.Round(span / res)
		if math.Abs(span-n*res) > 1e-9*math.Max(1, math.Abs(span)) {
			return fmt.Errorf("synth: dim %q span %g is not a multiple of res %g", d.Target, span, res)
		}
		if n < 1 {
			return fmt.Errorf("synth: dim %q has no lattice cell (span %g, res %g)", d.Target, span, res)
		}
		// Lattice indices and cell volumes are integers: past 2^53 cells
		// neither the index arithmetic nor the volume stays exact.
		if volume *= n; volume > 1<<53 {
			return fmt.Errorf("synth: space of %.0f lattice cells exceeds 2^53", volume)
		}
	}
	return nil
}

// maxPoints resolves the evaluation budget.
func (s *Space) maxPoints() int {
	if s.MaxPoints <= 0 {
		return defaultMaxPoints
	}
	return s.MaxPoints
}

// parallel resolves the in-flight evaluation bound.
func (s *Space) parallel() int {
	if s.Parallel <= 0 {
		return 4
	}
	return s.Parallel
}

// totalCells returns the cell volume of the full bounding box.
func (s *Space) totalCells() int64 {
	n := int64(1)
	for i := range s.Dims {
		n *= int64(s.Dims[i].cells())
	}
	return n
}

// targets parses every dimension's target. Call after Validate.
func (s *Space) targets() ([]*config.ParamTarget, error) {
	ts := make([]*config.ParamTarget, len(s.Dims))
	for i := range s.Dims {
		t, err := config.ParseParamTarget(s.Dims[i].Target)
		if err != nil {
			return nil, fmt.Errorf("synth: dim %d: %w", i, err)
		}
		ts[i] = t
	}
	return ts, nil
}

// Materialize builds the concrete system at a lattice point: the base
// cloned, every dimension's target applied at its indexed value, the
// result validated. Deterministic: the same space and index vector always
// yield the same system, hence the same config.Fingerprint — the
// invariant resume and the cache tiers rest on.
func (s *Space) Materialize(idx []int) (*config.System, error) {
	if len(idx) != len(s.Dims) {
		return nil, fmt.Errorf("synth: point %v has %d coordinates, space has %d dims", idx, len(idx), len(s.Dims))
	}
	ts, err := s.targets()
	if err != nil {
		return nil, err
	}
	sys := s.Base.Clone()
	for i, t := range ts {
		d := &s.Dims[i]
		if idx[i] < 0 || idx[i] > d.cells() {
			return nil, fmt.Errorf("synth: point %v coordinate %d outside lattice [0, %d]", idx, i, d.cells())
		}
		if err := t.Apply(sys, d.value(idx[i])); err != nil {
			return nil, fmt.Errorf("synth: point %v: %w", idx, err)
		}
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("synth: point %v: %w", idx, err)
	}
	return sys, nil
}

// values maps a lattice index vector to parameter values.
func (s *Space) values(idx []int) []float64 {
	vs := make([]float64, len(idx))
	for i, k := range idx {
		vs[i] = s.Dims[i].value(k)
	}
	return vs
}

// idxKey renders an index vector canonically for the verdict map and
// checkpoint labels.
func idxKey(idx []int) string {
	parts := make([]string, len(idx))
	for i, k := range idx {
		parts[i] = strconv.Itoa(k)
	}
	return strings.Join(parts, ",")
}

// fpVersion tags the canonical encoding of Space.Fingerprint; bump it
// when the encoding (or the meaning of any encoded field) changes so
// stale synthesis state cannot alias new spaces.
const fpVersion = "stopwatchsim/synth/v1"

// Fingerprint returns the stable content address of the synthesis: the
// hex SHA-256 of a canonical encoding of every field that affects which
// configurations are explored and how the region is derived. Execution
// knobs (Parallel) are excluded; the base system contributes through
// config.Fingerprint.
func (s *Space) Fingerprint() string {
	e := explore.NewFingerprint()
	e.Str(fpVersion)
	e.Str(s.Name)
	if s.Base == nil {
		e.Str("")
	} else {
		e.Str(s.Base.Fingerprint())
	}
	e.List(len(s.Dims))
	for i := range s.Dims {
		d := &s.Dims[i]
		e.Str(d.Target)
		e.F64(d.Min)
		e.F64(d.Max)
		e.F64(d.Res)
	}
	e.Num(int64(s.maxPoints()))
	return e.Sum()
}
