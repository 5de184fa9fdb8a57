package config

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParamTarget identifies one scalar configuration field promoted to a
// symbolic parameter — the WCET_i / per_i / Off_i parameters of the
// IMITATOR models (SNIPPETS.md) mapped onto this package's configuration
// tuple. A target is a spelled binding, resolved by name against a base
// system:
//
//	wcet:<partition>.<task>      every WCET entry of the task (all core types)
//	period:<partition>.<task>    the task's period
//	deadline:<partition>.<task>  the task's relative deadline
//	offset:<partition>           shift of every window of the partition
//	window:<partition>.<index>   width of the partition's index-th window
//	quantum:<partition>          the partition's round-robin quantum
//	wcet_pct                     global WCET scale in percent: c*pct/100, at least 1
//
// The paper's model has no per-task release offset (releases are anchored
// at window-schedule time zero), so the .imi models' Off_i maps to the
// window offset of the task's partition — the same phasing knob at
// partition granularity.
//
// Targets are pure spellings until Check resolves them against a system;
// Apply then mutates a (caller-cloned) system at an integer-rounded value.
// Both synth spaces and campaign "target:" axes materialize points through
// this one implementation, which is what makes their classifications
// comparable point for point.
type ParamTarget struct {
	raw  string
	kind string
	part string // partition name; "" for wcet_pct
	task string // task name (wcet, period, deadline)
	win  int    // window index (window)
}

// Target kinds.
const (
	TargetWCET     = "wcet"
	TargetPeriod   = "period"
	TargetDeadline = "deadline"
	TargetOffset   = "offset"
	TargetWindow   = "window"
	TargetQuantum  = "quantum"
	TargetWCETPct  = "wcet_pct"
)

// ParseParamTarget parses a target spelling. Only syntax is checked here;
// Check resolves the named entities against a concrete system.
func ParseParamTarget(s string) (*ParamTarget, error) {
	t := &ParamTarget{raw: s}
	kind, rest, hasRest := strings.Cut(s, ":")
	t.kind = kind
	switch kind {
	case TargetWCETPct:
		if hasRest {
			return nil, fmt.Errorf("config: target %q takes no operand", s)
		}
		return t, nil
	case TargetOffset, TargetQuantum:
		if !hasRest || rest == "" {
			return nil, fmt.Errorf("config: target %q needs a partition name (%s:<partition>)", s, kind)
		}
		if strings.Contains(rest, ".") {
			return nil, fmt.Errorf("config: target %q names a partition, not a task (%s:<partition>)", s, kind)
		}
		t.part = rest
		return t, nil
	case TargetWCET, TargetPeriod, TargetDeadline:
		part, task, ok := strings.Cut(rest, ".")
		if !hasRest || !ok || part == "" || task == "" {
			return nil, fmt.Errorf("config: target %q needs a task reference (%s:<partition>.<task>)", s, kind)
		}
		t.part, t.task = part, task
		return t, nil
	case TargetWindow:
		part, idx, ok := strings.Cut(rest, ".")
		if !hasRest || !ok || part == "" || idx == "" {
			return nil, fmt.Errorf("config: target %q needs a window reference (window:<partition>.<index>)", s)
		}
		n, err := strconv.Atoi(idx)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("config: target %q has an invalid window index %q", s, idx)
		}
		t.part, t.win = part, n
		return t, nil
	case "":
		return nil, fmt.Errorf("config: empty parameter target")
	default:
		return nil, fmt.Errorf("config: unknown parameter target kind %q in %q", kind, s)
	}
}

// QuantumTargets returns one quantum:<P> target per round-robin partition
// of sys, in partition order: a system-wide quantum expressed as targets.
// Built directly rather than parsed, so any partition name resolves.
func QuantumTargets(sys *System) []*ParamTarget {
	var ts []*ParamTarget
	for i := range sys.Partitions {
		if p := &sys.Partitions[i]; p.Policy == RR {
			ts = append(ts, &ParamTarget{raw: TargetQuantum + ":" + p.Name, kind: TargetQuantum, part: p.Name})
		}
	}
	return ts
}

// String returns the original spelling.
func (t *ParamTarget) String() string { return t.raw }

// Kind returns the target kind (Target* constants).
func (t *ParamTarget) Kind() string { return t.kind }

// MinValue returns the smallest integer value Apply accepts for this
// target kind: 0 for offsets (no shift), 1 for everything else (a zero
// WCET, period, deadline, window width, quantum or scale is meaningless).
func (t *ParamTarget) MinValue() float64 {
	if t.kind == TargetOffset {
		return 0
	}
	return 1
}

// Check resolves the target's named entities against sys, reporting
// dangling references. Kind-specific structural requirements (an RR
// policy for quantum, an in-range window index) are checked too.
func (t *ParamTarget) Check(sys *System) error {
	_, _, err := t.resolve(sys)
	return err
}

// resolve finds the partition the target names in sys and, for the task
// kinds, its task — both nil for wcet_pct — under Check's rules.
func (t *ParamTarget) resolve(sys *System) (*Partition, *Task, error) {
	if t.kind == TargetWCETPct {
		return nil, nil, nil
	}
	for pi := range sys.Partitions {
		p := &sys.Partitions[pi]
		if p.Name != t.part {
			continue
		}
		switch t.kind {
		case TargetWCET, TargetPeriod, TargetDeadline:
			for i := range p.Tasks {
				if p.Tasks[i].Name == t.task {
					return p, &p.Tasks[i], nil
				}
			}
			return nil, nil, fmt.Errorf("config: target %q: partition %q has no task named %q", t.raw, t.part, t.task)
		case TargetWindow:
			if t.win >= len(p.Windows) {
				return nil, nil, fmt.Errorf("config: target %q: partition %q has %d windows", t.raw, t.part, len(p.Windows))
			}
		case TargetQuantum:
			if p.Policy != RR {
				return nil, nil, fmt.Errorf("config: target %q: partition %q is not round-robin", t.raw, t.part)
			}
		}
		return p, nil, nil
	}
	return nil, nil, fmt.Errorf("config: target %q: no partition named %q", t.raw, t.part)
}

// Apply sets the targeted field of sys to round(v), mutating sys in
// place — clone the base system first (System.Clone). It rejects values
// below MinValue, the references Check rejects, and a wcet_pct scale whose
// product overflows int64 (a wrapped product would pass Validate as some
// small WCET); structural validity of the mutated system (deadline ≤
// period, windows within [0, L], …) is the caller's Validate call, run
// once after all targets of a point are applied.
func (t *ParamTarget) Apply(sys *System, v float64) error {
	n := int64(math.Round(v))
	if float64(n) < t.MinValue() {
		return fmt.Errorf("config: target %q: value %g below minimum %g", t.raw, v, t.MinValue())
	}
	p, tk, err := t.resolve(sys)
	if err != nil {
		return err
	}
	switch t.kind {
	case TargetWCETPct:
		for i := range sys.Partitions {
			for j := range sys.Partitions[i].Tasks {
				w := sys.Partitions[i].Tasks[j].WCET
				for k, c := range w {
					if c > math.MaxInt64/n {
						return fmt.Errorf("config: target %q: %d%% of WCET %d overflows int64", t.raw, n, c)
					}
					w[k] = max(c*n/100, 1)
				}
			}
		}
	case TargetOffset:
		for i := range p.Windows {
			p.Windows[i].Start += n
			p.Windows[i].End += n
		}
	case TargetWindow:
		p.Windows[t.win].End = p.Windows[t.win].Start + n
	case TargetQuantum:
		p.Quantum = n
	case TargetWCET:
		for k := range tk.WCET {
			tk.WCET[k] = n
		}
	case TargetPeriod:
		tk.Period = n
	case TargetDeadline:
		tk.Deadline = n
	}
	return nil
}

// Clone returns a deep copy of the system: mutating any slice-backed
// field of the copy (tasks, WCET vectors, windows, messages, topology
// routes) leaves the original untouched. Parameter application
// (ParamTarget.Apply) always works on a clone so base systems shared by
// campaigns and synthesis spaces stay pristine.
func (s *System) Clone() *System {
	out := *s
	out.CoreTypes = append([]string(nil), s.CoreTypes...)
	out.Cores = append([]Core(nil), s.Cores...)
	out.Partitions = make([]Partition, len(s.Partitions))
	for i := range s.Partitions {
		p := s.Partitions[i]
		tasks := make([]Task, len(p.Tasks))
		for j, t := range p.Tasks {
			t.WCET = append([]int64(nil), t.WCET...)
			tasks[j] = t
		}
		p.Tasks = tasks
		p.Windows = append([]Window(nil), p.Windows...)
		out.Partitions[i] = p
	}
	out.Messages = append([]Message(nil), s.Messages...)
	if s.Net != nil {
		net := &Topology{Ports: append([]Port(nil), s.Net.Ports...)}
		net.Routes = make([][]int, len(s.Net.Routes))
		for i, r := range s.Net.Routes {
			net.Routes[i] = append([]int(nil), r...)
		}
		out.Net = net
	}
	return &out
}
