package campaign

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/gen"
)

// Point is one location in the design space: a value per axis parameter.
type Point map[string]float64

// Key renders the point canonically (params sorted) for logs and
// checkpoint labels.
func (p Point) Key() string {
	params := make([]string, 0, len(p))
	for k := range p {
		params = append(params, k)
	}
	sort.Strings(params)
	parts := make([]string, len(params))
	for i, k := range params {
		parts[i] = fmt.Sprintf("%s=%g", k, p[k])
	}
	return strings.Join(parts, ",")
}

// Materialize builds the concrete system configuration at a point. Points
// over synthetic axes (util, tasks) generate a UUniFast task set from the
// spec's Generator; points over base axes (wcet_pct, quantum, target:)
// mutate a clone of the spec's base system through config.ParamTarget. A
// synthetic point can additionally be mutated when both kinds of axes
// appear. Materialization is deterministic: the same spec and point always
// yield the same system, hence the same config.Fingerprint — the invariant
// resume and the persistent cache tier rest on.
func Materialize(s *Spec, pt Point) (*config.System, error) {
	util, haveUtil := pt[ParamUtil]
	tasks, haveTasks := pt[ParamTasks]

	var sys *config.System
	switch {
	case haveUtil || haveTasks:
		g := s.Generator
		if g == nil {
			return nil, fmt.Errorf("campaign: point %s needs a generator", pt.Key())
		}
		n := g.Tasks
		if haveTasks {
			n = int(math.Round(tasks))
		}
		u := g.Util
		if haveUtil {
			u = util
		}
		if n < 1 {
			return nil, fmt.Errorf("campaign: point %s has no tasks", pt.Key())
		}
		if u <= 0 {
			return nil, fmt.Errorf("campaign: point %s has non-positive utilization", pt.Key())
		}
		sys = gen.UtilizationConfig(g.Seed, n, u, g.Periods)
	case s.Base != nil:
		sys = s.Base.Clone()
	default:
		return nil, fmt.Errorf("campaign: point %s matches neither base nor generator", pt.Key())
	}

	// Scaling and setting a WCET do not commute, so parameters apply in one
	// fixed order — wcet_pct, quantum, then the target: axes sorted — and
	// every permutation of the same point yields the same system (hence
	// the same fingerprint).
	var targets []string
	for k := range pt {
		if strings.HasPrefix(k, TargetPrefix) {
			targets = append(targets, k)
		}
	}
	sort.Strings(targets)
	for _, k := range append([]string{ParamWCETPct, ParamQuantum}, targets...) {
		if _, ok := pt[k]; !ok {
			continue
		}
		ts, err := axisTargets(k, sys)
		if err != nil {
			return nil, fmt.Errorf("campaign: point %s: %w", pt.Key(), err)
		}
		for _, t := range ts {
			if err := t.Apply(sys, pt[k]); err != nil {
				return nil, fmt.Errorf("campaign: point %s: %w", pt.Key(), err)
			}
		}
	}

	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: point %s: %w", pt.Key(), err)
	}
	return sys, nil
}

// axisTargets resolves a base-system axis to the config.ParamTargets it
// sets on sys: a target: axis to its one target, wcet_pct (already the
// spelling of the global WCET scale) to that target, and quantum to the
// quantum of every round-robin partition of sys.
func axisTargets(param string, sys *config.System) ([]*config.ParamTarget, error) {
	if param == ParamQuantum {
		return config.QuantumTargets(sys), nil
	}
	t, err := config.ParseParamTarget(strings.TrimPrefix(param, TargetPrefix))
	if err != nil {
		return nil, err
	}
	return []*config.ParamTarget{t}, nil
}
