package config

import (
	"strings"
	"testing"
)

// paramTestSystem is a two-partition system exercising every target kind.
func paramTestSystem() *System {
	return &System{
		Name:      "param-test",
		CoreTypes: []string{"cpu"},
		Cores:     []Core{{Name: "c1", Type: 0, Module: 0}},
		Partitions: []Partition{
			{
				Name: "P1", Policy: FPPS, Core: 0,
				Tasks: []Task{
					{Name: "a", Priority: 2, WCET: []int64{2}, Period: 10, Deadline: 10},
					{Name: "b", Priority: 1, WCET: []int64{3}, Period: 20, Deadline: 20},
				},
				Windows: []Window{{Start: 0, End: 10}},
			},
			{
				Name: "P2", Policy: RR, Core: 0, Quantum: 2,
				Tasks: []Task{
					{Name: "a", Priority: 1, WCET: []int64{1}, Period: 20, Deadline: 20},
				},
				Windows: []Window{{Start: 10, End: 20}},
			},
		},
	}
}

func TestParseParamTarget(t *testing.T) {
	sys := paramTestSystem()
	good := []string{
		"wcet:P1.a", "wcet:P2.a", "period:P1.b", "deadline:P1.a",
		"offset:P2", "window:P1.0", "quantum:P2", "wcet_pct",
	}
	for _, s := range good {
		pt, err := ParseParamTarget(s)
		if err != nil {
			t.Fatalf("ParseParamTarget(%q): %v", s, err)
		}
		if pt.String() != s {
			t.Errorf("String() = %q, want %q", pt.String(), s)
		}
		if err := pt.Check(sys); err != nil {
			t.Errorf("Check(%q): %v", s, err)
		}
	}
	badSyntax := []string{
		"", "wcet", "wcet:", "wcet:P1", "wcet_pct:5", "offset:P1.a",
		"window:P1.x", "window:P1.-1", "bogus:P1.a", "period:.a", "period:P1.",
	}
	for _, s := range badSyntax {
		if _, err := ParseParamTarget(s); err == nil {
			t.Errorf("ParseParamTarget(%q) succeeded, want error", s)
		}
	}
	badRefs := []string{
		"wcet:P9.a", "wcet:P1.z", "window:P1.3", "quantum:P1", // P1 is not RR
	}
	for _, s := range badRefs {
		pt, err := ParseParamTarget(s)
		if err != nil {
			t.Fatalf("ParseParamTarget(%q): %v", s, err)
		}
		if err := pt.Check(sys); err == nil {
			t.Errorf("Check(%q) succeeded, want error", s)
		}
	}
}

func TestParamTargetApply(t *testing.T) {
	base := paramTestSystem()
	apply := func(t *testing.T, spec string, v float64) *System {
		t.Helper()
		pt, err := ParseParamTarget(spec)
		if err != nil {
			t.Fatal(err)
		}
		sys := base.Clone()
		if err := pt.Apply(sys, v); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	if sys := apply(t, "wcet:P1.a", 7); sys.Partitions[0].Tasks[0].WCET[0] != 7 {
		t.Errorf("wcet target: got %d, want 7", sys.Partitions[0].Tasks[0].WCET[0])
	}
	if sys := apply(t, "period:P1.b", 40); sys.Partitions[0].Tasks[1].Period != 40 {
		t.Errorf("period target: got %d, want 40", sys.Partitions[0].Tasks[1].Period)
	}
	if sys := apply(t, "deadline:P1.a", 8); sys.Partitions[0].Tasks[0].Deadline != 8 {
		t.Errorf("deadline target: got %d, want 8", sys.Partitions[0].Tasks[0].Deadline)
	}
	if sys := apply(t, "offset:P2", 3); sys.Partitions[1].Windows[0] != (Window{Start: 13, End: 23}) {
		t.Errorf("offset target: got %+v", sys.Partitions[1].Windows[0])
	}
	if sys := apply(t, "window:P1.0", 5); sys.Partitions[0].Windows[0] != (Window{Start: 0, End: 5}) {
		t.Errorf("window target: got %+v", sys.Partitions[0].Windows[0])
	}
	if sys := apply(t, "quantum:P2", 4); sys.Partitions[1].Quantum != 4 {
		t.Errorf("quantum target: got %d, want 4", sys.Partitions[1].Quantum)
	}
	// wcet_pct scales every WCET to c*pct/100, clamped to 1.
	sys := apply(t, "wcet_pct", 150)
	if got := sys.Partitions[0].Tasks[0].WCET[0]; got != 3 { // 2*150/100
		t.Errorf("wcet_pct 150: task a WCET = %d, want 3", got)
	}
	if got := sys.Partitions[1].Tasks[0].WCET[0]; got != 1 { // 1*150/100 = 1
		t.Errorf("wcet_pct 150: P2.a WCET = %d, want 1", got)
	}
	sys = apply(t, "wcet_pct", 10)
	if got := sys.Partitions[0].Tasks[0].WCET[0]; got != 1 { // clamp to 1
		t.Errorf("wcet_pct 10: task a WCET = %d, want 1 (clamped)", got)
	}
	sys = apply(t, "wcet_pct", 1)
	if got := sys.Partitions[0].Tasks[1].WCET[0]; got != 1 { // 3*1/100 = 0, clamped
		t.Errorf("wcet_pct 1: task b WCET = %d, want 1 (clamped)", got)
	}
	if got := base.Partitions[0].Tasks[0].WCET[0]; got != 2 {
		t.Errorf("scaling a clone changed the base WCET to %d", got)
	}
	// A product past int64 is an error, not a wrapped (and then clamped)
	// WCET: 1000 at 1e16% once materialized as WCET 1.
	pt, _ := ParseParamTarget("wcet_pct")
	big := base.Clone()
	big.Partitions[0].Tasks[0].WCET[0] = 1000
	if err := pt.Apply(big, 1e16); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("wcet_pct 1e16 of WCET 1000: err = %v, want an overflow error", err)
	}

	// Below-minimum values are rejected; offset accepts 0.
	pt, _ = ParseParamTarget("wcet:P1.a")
	if err := pt.Apply(base.Clone(), 0); err == nil {
		t.Error("wcet value 0 accepted, want error")
	}
	pt, _ = ParseParamTarget("offset:P2")
	if err := pt.Apply(base.Clone(), 0); err != nil {
		t.Errorf("offset 0: %v", err)
	}
	if err := pt.Apply(base.Clone(), -1); err == nil {
		t.Error("offset -1 accepted, want error")
	}

	// Rounding: 6.6 rounds to 7.
	if sys := apply(t, "wcet:P1.a", 6.6); sys.Partitions[0].Tasks[0].WCET[0] != 7 {
		t.Errorf("rounding: got %d, want 7", sys.Partitions[0].Tasks[0].WCET[0])
	}
}

func TestCloneIsolation(t *testing.T) {
	base := paramTestSystem()
	base.Messages = []Message{{Name: "m", SrcPart: 0, SrcTask: 0, DstPart: 1, DstTask: 0, MemDelay: 1, NetDelay: 2}}
	base.Net = &Topology{Ports: []Port{{Name: "p0"}}, Routes: [][]int{{0}}}
	base.Messages[0].TxTime = 1

	fpBefore := base.Fingerprint()
	cl := base.Clone()
	if cl.Fingerprint() != fpBefore {
		t.Fatal("clone changed the fingerprint")
	}
	cl.Partitions[0].Tasks[0].WCET[0] = 99
	cl.Partitions[0].Windows[0].End = 99
	cl.Partitions[1].Quantum = 99
	cl.Messages[0].MemDelay = 99
	cl.Net.Routes[0][0] = 0
	cl.Net.Ports[0].Name = "renamed"
	cl.CoreTypes[0] = "gpu"
	cl.Cores[0].Name = "c9"
	if base.Fingerprint() != fpBefore {
		t.Fatal("mutating the clone changed the original")
	}
	if base.Partitions[0].Tasks[0].WCET[0] != 2 || base.Partitions[0].Windows[0].End != 10 {
		t.Fatal("clone shares backing arrays with the original")
	}
}

func TestParamTargetErrorsMentionSpelling(t *testing.T) {
	pt, err := ParseParamTarget("wcet:P9.a")
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Check(paramTestSystem()); err == nil || !strings.Contains(err.Error(), "wcet:P9.a") {
		t.Errorf("Check error %v does not mention the target spelling", err)
	}
}
