package campaign

import (
	"errors"
	"strings"
	"testing"

	"stopwatchsim/internal/config"
)

// specSystem builds a small valid base system for spec tests.
func specSystem() *config.System {
	s := &config.System{
		Name:      "spec",
		CoreTypes: []string{"cpu"},
		Cores:     []config.Core{{Name: "c1", Type: 0, Module: 1}},
		Partitions: []config.Partition{{
			Name: "P1", Core: 0, Policy: config.FPPS,
			Tasks: []config.Task{
				{Name: "T", Priority: 1, WCET: []int64{10}, Period: 40, Deadline: 40},
			},
			Windows: []config.Window{{Start: 0, End: 40}},
		}},
	}
	return s
}

// fpSpec builds the reference spec the fingerprint tests mutate. A fresh
// value per call so mutations cannot leak between subtests.
func fpSpec() *Spec {
	return &Spec{
		Name:     "ref",
		Strategy: StrategyGrid,
		Base:     specSystem(),
		Generator: &Generator{
			Seed: 7, Tasks: 4, Util: 0.6, Periods: []int64{10, 20, 40},
		},
		Axes: []Axis{
			{Param: ParamWCETPct, Min: 100, Max: 300, Step: 100},
		},
		Parallel:  2,
		MaxPoints: 500,
	}
}

func TestSpecFingerprintDeterministic(t *testing.T) {
	a, b := fpSpec(), fpSpec()
	fa, fb := a.Fingerprint(), b.Fingerprint()
	if fa != fb {
		t.Fatalf("identical specs hash differently: %s vs %s", fa, fb)
	}
	if fa != a.Fingerprint() {
		t.Fatal("hashing the same spec twice differs")
	}
	if len(fa) != 64 || strings.Trim(fa, "0123456789abcdef") != "" {
		t.Fatalf("fingerprint is not hex sha256: %q", fa)
	}
}

// TestSpecFingerprintDistinct mutates every semantically significant field
// and asserts each mutation moves the fingerprint, while the excluded
// execution knob (Parallel) does not.
func TestSpecFingerprintDistinct(t *testing.T) {
	ref := fpSpec().Fingerprint()
	muts := []struct {
		name string
		mut  func(*Spec)
		same bool
	}{
		{name: "name", mut: func(s *Spec) { s.Name = "other" }},
		{name: "strategy", mut: func(s *Spec) { s.Strategy = StrategyBisect }},
		{name: "base/wcet", mut: func(s *Spec) { s.Base.Partitions[0].Tasks[0].WCET[0]++ }},
		{name: "base/nil", mut: func(s *Spec) { s.Base = nil }},
		{name: "generator/seed", mut: func(s *Spec) { s.Generator.Seed++ }},
		{name: "generator/tasks", mut: func(s *Spec) { s.Generator.Tasks++ }},
		{name: "generator/util", mut: func(s *Spec) { s.Generator.Util += 0.1 }},
		{name: "generator/periods", mut: func(s *Spec) { s.Generator.Periods[0] = 5 }},
		{name: "generator/nil", mut: func(s *Spec) { s.Generator = nil }},
		{name: "axis/param", mut: func(s *Spec) { s.Axes[0].Param = ParamQuantum }},
		{name: "axis/min", mut: func(s *Spec) { s.Axes[0].Min++ }},
		{name: "axis/max", mut: func(s *Spec) { s.Axes[0].Max++ }},
		{name: "axis/step", mut: func(s *Spec) { s.Axes[0].Step++ }},
		{name: "axis/tol", mut: func(s *Spec) { s.Axes[0].Tol = 0.5 }},
		{name: "axis/extra", mut: func(s *Spec) {
			s.Axes = append(s.Axes, Axis{Param: ParamQuantum, Min: 1, Max: 4, Step: 1})
		}},
		{name: "max_points", mut: func(s *Spec) { s.MaxPoints = 600 }},
		{name: "parallel", mut: func(s *Spec) { s.Parallel = 16 }, same: true},
	}
	for _, m := range muts {
		t.Run(m.name, func(t *testing.T) {
			s := fpSpec()
			m.mut(s)
			got := s.Fingerprint()
			if m.same && got != ref {
				t.Fatalf("execution knob %s moved the fingerprint", m.name)
			}
			if !m.same && got == ref {
				t.Fatalf("mutation %s did not move the fingerprint", m.name)
			}
		})
	}
}

// TestSpecFingerprintFieldConfusion guards the tagged encoding: shifting a
// value between adjacent float fields must not collide.
func TestSpecFingerprintFieldConfusion(t *testing.T) {
	a, b := fpSpec(), fpSpec()
	a.Axes[0].Min, a.Axes[0].Max = 100, 200
	b.Axes[0].Min, b.Axes[0].Max = 200, 100
	// b is invalid (max < min) but the fingerprint must still distinguish.
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("swapped min/max collide")
	}
}

// specRejects are malformed spec bodies and the error each must name;
// they also seed FuzzParseSpec.
var specRejects = []struct {
	name, body, want string
}{
	{"unknown field", `{"name":"x","strategy":"grid","bogus":1}`, "bogus"},
	{"no name", `{"strategy":"grid"}`, "needs a name"},
	{"no strategy", `{"name":"x"}`, "needs a strategy"},
	{"bad strategy", `{"name":"x","strategy":"anneal"}`, "unknown strategy"},
	{"bisect arity", `{"name":"x","strategy":"bisect","axes":[]}`, "exactly 1 axis"},
	{"grid no step", `{"name":"x","strategy":"grid","generator":{"seed":1,"periods":[10]},"axes":[{"param":"util","min":0.1,"max":0.9}]}`, "positive step"},
	{"axis needs base", `{"name":"x","strategy":"bisect","axes":[{"param":"wcet_pct","min":100,"max":200}]}`, "requires a base"},
	{"axis needs generator", `{"name":"x","strategy":"bisect","axes":[{"param":"util","min":0.1,"max":0.9}]}`, "requires a generator"},
	{"unknown param", `{"name":"x","strategy":"bisect","axes":[{"param":"jitter","min":1,"max":2}]}`, "unknown axis param"},
	{"max below min", `{"name":"x","strategy":"bisect","generator":{"seed":1,"periods":[10]},"axes":[{"param":"util","min":0.9,"max":0.1}]}`, "max 0.1 < min 0.9"},
	{"grid too big", `{"name":"x","strategy":"grid","generator":{"seed":1,"periods":[10]},"max_points":3,"axes":[{"param":"util","min":0.1,"max":0.9,"step":0.1}]}`, "exceeds max_points"},
	{"bad period", `{"name":"x","strategy":"bisect","generator":{"seed":1,"periods":[0]},"axes":[{"param":"util","min":0.1,"max":0.9}]}`, "not positive"},
	{"step does not advance", `{"name":"x","strategy":"grid","generator":{"seed":1,"periods":[10]},"axes":[{"param":"util","min":1e16,"max":1e16,"step":1}]}`, "does not advance"},
	{"grid counted not expanded", `{"name":"x","strategy":"grid","generator":{"seed":1,"periods":[10]},"axes":[{"param":"util","min":1,"max":1e12,"step":1}]}`, "exceeds max_points"},
	{"frontier rows counted", `{"name":"x","strategy":"frontier","generator":{"seed":1,"periods":[10]},"axes":[{"param":"util","min":1,"max":1e9,"step":1},{"param":"tasks","min":1,"max":8}],"max_points":50}`, "exceeds max_points"},
	{"bisection counted", `{"name":"x","strategy":"bisect","generator":{"seed":1,"periods":[10]},"axes":[{"param":"util","min":1,"max":1e9,"tol":1e-9}],"max_points":50}`, "exceeds max_points"},
}

func TestParseSpecRejects(t *testing.T) {
	for _, c := range specRejects {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec(strings.NewReader(c.body))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want containing %q", err, c.want)
			}
			if c.want == ErrGridTooLarge.Error() && !errors.Is(err, ErrGridTooLarge) {
				t.Fatalf("err = %v, want it to wrap ErrGridTooLarge", err)
			}
		})
	}
}

func TestGridValues(t *testing.T) {
	a := Axis{Min: 100, Max: 300, Step: 100}
	got := a.gridValues()
	if len(got) != 3 || got[0] != 100 || got[1] != 200 || got[2] != 300 {
		t.Fatalf("gridValues = %v", got)
	}
	// Fractional steps must include the endpoint despite float drift.
	a = Axis{Min: 0.1, Max: 0.5, Step: 0.1}
	if got := a.gridValues(); len(got) != 5 {
		t.Fatalf("fractional gridValues = %v", got)
	}
}

func TestGridPointsCrossProduct(t *testing.T) {
	pts := gridPoints([]Axis{
		{Param: ParamWCETPct, Min: 100, Max: 200, Step: 100},
		{Param: ParamQuantum, Min: 1, Max: 3, Step: 1},
	})
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	// Row-major: last axis fastest.
	if pts[0].Key() != "quantum=1,wcet_pct=100" || pts[1].Key() != "quantum=2,wcet_pct=100" {
		t.Fatalf("order: %s then %s", pts[0].Key(), pts[1].Key())
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	s := &Spec{
		Name:     "gen",
		Strategy: StrategyBisect,
		Generator: &Generator{
			Seed: 42, Tasks: 4, Periods: []int64{10, 20, 40},
		},
		Axes: []Axis{{Param: ParamUtil, Min: 0.1, Max: 0.9}},
	}
	pt := Point{ParamUtil: 0.5}
	a, err := Materialize(s, pt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Materialize(s, pt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same point materialized to different configurations")
	}
	c, err := Materialize(s, Point{ParamUtil: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different utilizations collide")
	}
}

func TestMaterializeQuantumAndScale(t *testing.T) {
	base := specSystem()
	base.Partitions[0].Policy = config.RR
	base.Partitions[0].Quantum = 2
	s := &Spec{Name: "rr", Strategy: StrategyGrid, Base: base,
		Axes: []Axis{{Param: ParamQuantum, Min: 1, Max: 4, Step: 1}}}
	sys, err := Materialize(s, Point{ParamQuantum: 3, ParamWCETPct: 150})
	if err != nil {
		t.Fatal(err)
	}
	if q := sys.Partitions[0].Quantum; q != 3 {
		t.Fatalf("quantum = %d, want 3", q)
	}
	if w := sys.Partitions[0].Tasks[0].WCET[0]; w != 15 {
		t.Fatalf("scaled WCET = %d, want 15", w)
	}
	// The spec's base must stay pristine.
	if base.Partitions[0].Quantum != 2 || base.Partitions[0].Tasks[0].WCET[0] != 10 {
		t.Fatal("base mutated by materialization")
	}
	// A scale whose WCET product overflows int64 fails to materialize
	// instead of wrapping into a small, schedulable-looking WCET.
	if _, err := Materialize(s, Point{ParamWCETPct: 1e18}); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("wcet_pct=1e18: err = %v, want an overflow error", err)
	}
}

// TestLegacyAxesAreTargets: the wcet_pct and quantum axes are spellings of
// config.ParamTargets, so they materialize the very configurations of
// target:wcet_pct and target:quantum:<P> (one per round-robin partition),
// alone and combined.
func TestLegacyAxesAreTargets(t *testing.T) {
	base := specSystem()
	rr := base.Partitions[0]
	rr.Name, rr.Policy, rr.Quantum = "P2", config.RR, 2
	base.Partitions[0].Windows = []config.Window{{Start: 0, End: 20}}
	rr.Windows = []config.Window{{Start: 20, End: 40}}
	base.Partitions = append(base.Partitions, rr)
	s := &Spec{Name: "legacy", Strategy: StrategyGrid, Base: base}
	for _, tc := range []struct{ legacy, target Point }{
		{Point{ParamWCETPct: 150}, Point{"target:wcet_pct": 150}},
		{Point{ParamWCETPct: 1}, Point{"target:wcet_pct": 1}},
		{Point{ParamQuantum: 3}, Point{"target:quantum:P2": 3}},
		{Point{ParamWCETPct: 250, ParamQuantum: 4}, Point{"target:wcet_pct": 250, "target:quantum:P2": 4}},
	} {
		a, err := Materialize(s, tc.legacy)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Materialize(s, tc.target)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s and %s materialize different configurations", tc.legacy.Key(), tc.target.Key())
		}
	}
}

// TestTargetAxisValidation covers "target:" axes: a well-formed target
// over the base system validates; spelling errors, dangling references,
// a missing base, and sub-minimum bounds are each rejected with a
// message naming the axis.
func TestTargetAxisValidation(t *testing.T) {
	mk := func(param string, min float64) *Spec {
		return &Spec{Name: "t", Strategy: StrategyGrid, Base: specSystem(),
			Axes: []Axis{{Param: param, Min: min, Max: min + 10, Step: 1}}}
	}
	if err := mk("target:wcet:P1.T", 1).Validate(); err != nil {
		t.Fatalf("valid target axis rejected: %v", err)
	}
	if err := mk("target:offset:P1", 0).Validate(); err != nil {
		t.Fatalf("valid offset axis rejected: %v", err)
	}
	for _, tc := range []struct {
		spec *Spec
		want string
	}{
		{mk("target:bogus:P1.T", 1), "unknown parameter target kind"},
		{mk("target:wcet:P1.nope", 1), "no task named"},
		{mk("target:wcet:nope.T", 1), "no partition named"},
		{mk("target:wcet:P1.T", 0), ">= 1"},
		{mk(ParamWCETPct, 0), ">= 1"},
		{mk(ParamQuantum, 0), ">= 1"},
		{&Spec{Name: "t", Strategy: StrategyGrid,
			Generator: &Generator{Periods: []int64{10}},
			Axes:      []Axis{{Param: "target:wcet:P1.T", Min: 1, Max: 4, Step: 1}}},
			"requires a base system"},
	} {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("axis %q: err = %v, want mention of %q", tc.spec.Axes[0].Param, err, tc.want)
		}
	}
}

// TestMaterializeTargets materializes a point over two target axes and
// checks the named fields moved, everything else (and the base) did not,
// and repeated materialization fingerprints identically.
func TestMaterializeTargets(t *testing.T) {
	base := specSystem()
	s := &Spec{Name: "targets", Strategy: StrategyGrid, Base: base,
		Axes: []Axis{
			{Param: "target:wcet:P1.T", Min: 1, Max: 20, Step: 1},
			{Param: "target:period:P1.T", Min: 40, Max: 80, Step: 20},
		}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	pt := Point{"target:wcet:P1.T": 5, "target:period:P1.T": 80}
	sys, err := Materialize(s, pt)
	if err != nil {
		t.Fatal(err)
	}
	tk := &sys.Partitions[0].Tasks[0]
	if tk.WCET[0] != 5 || tk.Period != 80 {
		t.Fatalf("materialized task = WCET %d period %d, want 5 and 80", tk.WCET[0], tk.Period)
	}
	if tk.Deadline != 40 {
		t.Fatalf("deadline moved to %d, should stay 40", tk.Deadline)
	}
	if base.Partitions[0].Tasks[0].WCET[0] != 10 || base.Partitions[0].Tasks[0].Period != 40 {
		t.Fatal("base mutated by target materialization")
	}
	again, err := Materialize(s, pt)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Fingerprint() != again.Fingerprint() {
		t.Fatal("same target point materialized to different fingerprints")
	}
	// A structurally invalid point — period shrunk below the fixed
	// deadline — is caught by the post-apply Validate.
	if _, err := Materialize(s, Point{"target:period:P1.T": 20, "target:wcet:P1.T": 5}); err == nil {
		t.Fatal("period below the deadline materialized without error")
	}
}

// TestBisectionWithinCost runs the bisection loop against boundaries across
// axes whose tol is near float64 resolution, where lo+tol rounds back to lo:
// the loop must end, within the cost Validate counts for the axis.
func TestBisectionWithinCost(t *testing.T) {
	for _, a := range []Axis{
		{Min: 0, Max: 100, Tol: 1},
		{Min: 0.1, Max: 0.9, Tol: 0.01},
		{Min: 1e16, Max: 1e16 + 64, Tol: 0.5},
		{Min: 3e15, Max: 9e15 + 7, Tol: 0.3},
	} {
		for i := 0; i <= 200; i++ {
			thr := a.Min + (a.Max-a.Min)*float64(i)/200
			if n := worstBisection(&a, thr, 10000); float64(n) > a.bisectCost() {
				t.Fatalf("axis %+v, boundary %g: %d evaluations over the counted %.0f", a, thr, n, a.bisectCost())
			}
		}
	}
}
