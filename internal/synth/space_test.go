package synth

import (
	"strings"
	"testing"

	"stopwatchsim/internal/config"
)

// synthSystem builds a one-core EDF system with two tasks whose
// schedulability is analytic: EDF with implicit deadlines on a fully
// open window is schedulable iff total utilization is at most 1.
func synthSystem() *config.System {
	return &config.System{
		Name:      "synth-test",
		CoreTypes: []string{"cpu"},
		Cores:     []config.Core{{Name: "c1", Type: 0, Module: 1}},
		Partitions: []config.Partition{{
			Name: "P1", Core: 0, Policy: config.EDF,
			Tasks: []config.Task{
				{Name: "a", Priority: 1, WCET: []int64{2}, Period: 10, Deadline: 10},
				{Name: "b", Priority: 1, WCET: []int64{5}, Period: 10, Deadline: 10},
			},
			Windows: []config.Window{{Start: 0, End: 10}},
		}},
	}
}

func oneDimSpace() *Space {
	return &Space{
		Name: "breakdown-a",
		Base: synthSystem(),
		Dims: []Dim{{Target: "wcet:P1.a", Min: 1, Max: 10}},
	}
}

func TestSpaceValidate(t *testing.T) {
	if err := oneDimSpace().Validate(); err != nil {
		t.Fatalf("valid space rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Space)
		want string
	}{
		{"no name", func(s *Space) { s.Name = "" }, "needs a name"},
		{"no base", func(s *Space) { s.Base = nil }, "needs a base system"},
		{"no dims", func(s *Space) { s.Dims = nil }, "1–3 dims"},
		{"bad target", func(s *Space) { s.Dims[0].Target = "bogus:x" }, "unknown parameter target"},
		{"dangling task", func(s *Space) { s.Dims[0].Target = "wcet:P1.zz" }, "no task named"},
		{"below minimum", func(s *Space) { s.Dims[0].Min = 0 }, ">= 1"},
		{"empty interval", func(s *Space) { s.Dims[0].Max = s.Dims[0].Min }, "max"},
		{"misaligned span", func(s *Space) { s.Dims[0].Res = 4 }, "not a multiple of res"},
		{"lattice overflow", func(s *Space) { s.Dims[0].Max = 1e20 }, "exceeds 2^53"},
		{"repeated target", func(s *Space) {
			s.Dims = append(s.Dims, Dim{Target: "wcet:P1.a", Min: 1, Max: 4})
		}, "repeats target"},
		{"too many dims", func(s *Space) {
			s.Dims = append(s.Dims,
				Dim{Target: "wcet:P1.b", Min: 1, Max: 4},
				Dim{Target: "period:P1.a", Min: 10, Max: 20},
				Dim{Target: "deadline:P1.a", Min: 5, Max: 10})
		}, "1–3 dims"},
	} {
		s := oneDimSpace()
		tc.mut(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestSpaceFingerprint(t *testing.T) {
	a, b := oneDimSpace(), oneDimSpace()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical spaces hash differently")
	}
	fp := a.Fingerprint()
	if len(fp) != 64 || strings.Trim(fp, "0123456789abcdef") != "" {
		t.Fatalf("fingerprint is not hex sha256: %q", fp)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Space)
	}{
		{"name", func(s *Space) { s.Name = "other" }},
		{"target", func(s *Space) { s.Dims[0].Target = "wcet:P1.b" }},
		{"min", func(s *Space) { s.Dims[0].Min = 2 }},
		{"max", func(s *Space) { s.Dims[0].Max = 9 }},
		{"res", func(s *Space) { s.Dims[0].Res = 0.5 }},
		{"max points", func(s *Space) { s.MaxPoints = 99 }},
		{"base", func(s *Space) { s.Base.Partitions[0].Tasks[0].Period = 20 }},
	} {
		s := oneDimSpace()
		tc.mut(s)
		if s.Fingerprint() == fp {
			t.Errorf("mutating %s does not move the fingerprint", tc.name)
		}
	}
	// Execution knobs are excluded: same exploration, different concurrency.
	s := oneDimSpace()
	s.Parallel = 9
	if s.Fingerprint() != fp {
		t.Error("Parallel moved the fingerprint; it must not")
	}
}

func TestLatticeGeometry(t *testing.T) {
	d := Dim{Target: "wcet:P1.a", Min: 1, Max: 10}
	if d.cells() != 9 {
		t.Fatalf("cells = %d, want 9", d.cells())
	}
	if d.value(0) != 1 || d.value(9) != 10 || d.value(4) != 5 {
		t.Fatalf("values = %g %g %g", d.value(0), d.value(9), d.value(4))
	}
	half := Dim{Target: "x", Min: 0, Max: 2, Res: 0.5}
	if half.cells() != 4 || half.value(3) != 1.5 {
		t.Fatalf("res 0.5: cells=%d value(3)=%g", half.cells(), half.value(3))
	}
	if k := idxKey([]int{3, 0, 12}); k != "3,0,12" {
		t.Fatalf("idxKey = %q", k)
	}
}

func TestMaterializePoint(t *testing.T) {
	s := &Space{
		Name: "2d",
		Base: synthSystem(),
		Dims: []Dim{
			{Target: "wcet:P1.a", Min: 1, Max: 10},
			{Target: "wcet:P1.b", Min: 1, Max: 10},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	sys, err := s.Materialize([]int{3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Partitions[0].Tasks[0].WCET[0]; got != 4 {
		t.Fatalf("a.WCET = %d, want 4", got)
	}
	if got := sys.Partitions[0].Tasks[1].WCET[0]; got != 7 {
		t.Fatalf("b.WCET = %d, want 7", got)
	}
	if s.Base.Partitions[0].Tasks[0].WCET[0] != 2 {
		t.Fatal("base mutated by materialization")
	}
	again, err := s.Materialize([]int{3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Fingerprint() != again.Fingerprint() {
		t.Fatal("same point materialized to different fingerprints")
	}
	if _, err := s.Materialize([]int{3}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := s.Materialize([]int{3, 99}); err == nil {
		t.Fatal("out-of-lattice coordinate accepted")
	}
}
