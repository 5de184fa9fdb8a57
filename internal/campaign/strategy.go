package campaign

import (
	"context"
	"fmt"
	"math"
)

// The strategies. Each maps the design space with a different budget of
// oracle runs:
//
//   - grid evaluates every cross-product point — the ground truth, at
//     exponential cost in axis count;
//   - bisect finds the breakdown value of one parameter in O(log range)
//     runs — on wcet_pct, the critical WCET scaling of cmd/sensitivity;
//   - frontier traces the schedulable/unschedulable boundary over two
//     parameters by bisecting one axis per grid row of the other, seeding
//     each row's bracket from the neighbor row's critical point (the
//     boundary is continuous in practice, so the seeded probe usually
//     halves the bracket immediately).
//
// All three assume what the paper's model guarantees for WCET-like
// parameters: the verdict is deterministic per point; bisect and frontier
// additionally assume schedulability is monotone non-increasing along the
// bisected axis (true for WCET scale and utilization under
// work-conserving schedulers on a fixed window schedule).

// runGrid evaluates the full cross product, fanning spec.Parallel points
// at a time through the pool and checkpointing as each completes. Failed
// points are retried per the quarantine policy and then recorded and
// skipped — one pathological corner of a sweep must not void the rest of
// the map.
func (c *Campaign) runGrid(ctx context.Context) error {
	pts := gridPoints(c.spec.Axes)
	_, err := c.evaluate(ctx, pts, c.spec.parallel())
	return err
}

// gridPoints expands the axes' cross product in row-major order (last
// axis fastest), matching the order a nested sweep loop would visit.
func gridPoints(axes []Axis) []Point {
	pts := []Point{{}}
	for i := range axes {
		a := &axes[i]
		var next []Point
		for _, base := range pts {
			for _, v := range a.gridValues() {
				pt := make(Point, len(base)+1)
				for k, bv := range base {
					pt[k] = bv
				}
				pt[a.Param] = v
				next = append(next, pt)
			}
		}
		pts = next
	}
	return pts
}

// runBisect finds the critical value of the single axis and records it —
// with the witness bracket behind it — in state.Critical/Bracket.
func (c *Campaign) runBisect(ctx context.Context) error {
	crit, pair, _, err := c.bisectAxis(ctx, Point{}, &c.spec.Axes[0], bracket{})
	if err != nil {
		return err
	}
	c.Update(func(st *State) { st.Critical, st.Bracket = crit, pair })
	return nil
}

// runFrontier grids the row axis and bisects the column axis per row,
// seeding brackets adaptively, building state.Frontier.
func (c *Campaign) runFrontier(ctx context.Context) error {
	rowAxis, colAxis := &c.spec.Axes[0], &c.spec.Axes[1]
	var prev *float64
	for _, row := range rowAxis.gridValues() {
		base := Point{rowAxis.Param: row}
		var before int
		c.Update(func(st *State) { before = st.Convergence.Evaluations })

		var br bracket
		if prev != nil && *prev > colAxis.Min && *prev < colAxis.Max {
			// Adaptive seeding: probe the neighbor row's critical point
			// first; whichever way it lands, it halves the bracket.
			pr, err := c.evalAt(ctx, base, colAxis.Param, *prev)
			if err != nil {
				return err
			}
			if pr.Schedulable {
				br.lo, br.loKnown = *prev, true
			} else {
				br.hi, br.hiKnown = *prev, true
			}
			c.Update(func(st *State) { st.Convergence.BracketReuses++ })
			c.eng.bracketReuses.Add(1)
		}

		crit, pair, _, err := c.bisectAxis(ctx, base, colAxis, br)
		if err != nil {
			return err
		}
		c.Update(func(st *State) {
			evals := st.Convergence.Evaluations - before
			st.Frontier = append(st.Frontier, FrontierRow{Row: row, Critical: crit, Bracket: pair, Evaluations: evals})
			st.Convergence.FrontierRows++
		})
		c.eng.frontierRows.Add(1)
		c.Checkpoint()
		prev = crit
	}
	return nil
}

// bracket carries pre-verified bisection bounds: loKnown asserts lo is
// schedulable, hiKnown that hi is unschedulable.
type bracket struct {
	lo, hi           float64
	loKnown, hiKnown bool
}

// bisectAxis finds the largest schedulable value of axis a (at resolution
// a.tol()) over the base point, returning nil when even the minimum is
// unschedulable. The BracketPair carries the witness runs localizing the
// boundary: the largest value proven schedulable and the smallest proven
// unschedulable (one side absent when the whole interval falls on one
// side). The returned int counts interior iterations. A failed oracle run
// aborts the search: a breakdown result computed around a hole would be
// silently wrong.
func (c *Campaign) bisectAxis(ctx context.Context, base Point, a *Axis, br bracket) (*float64, *BracketPair, int, error) {
	lo, hi := a.Min, a.Max
	loKnown, hiKnown := false, false
	if br.loKnown {
		lo, loKnown = br.lo, true
	}
	if br.hiKnown {
		hi, hiKnown = br.hi, true
	}

	if !loKnown {
		pr, err := c.evalAt(ctx, base, a.Param, lo)
		if err != nil {
			return nil, nil, 0, err
		}
		if !pr.Schedulable {
			// Nothing schedulable at or above the minimum: the minimum
			// itself is the infeasible witness.
			v := lo
			return nil, &BracketPair{Infeasible: &v}, 0, nil
		}
	}
	if !hiKnown {
		pr, err := c.evalAt(ctx, base, a.Param, hi)
		if err != nil {
			return nil, nil, 0, err
		}
		if pr.Schedulable {
			// The whole interval is schedulable: the maximum is its own
			// feasible witness, no infeasible one exists.
			v := hi
			return &v, &BracketPair{Feasible: &v}, 0, nil
		}
	}

	lo, hi, iters, err := a.bisectLoop(lo, hi, func(mid float64) (bool, error) {
		pr, err := c.evalAt(ctx, base, a.Param, mid)
		if err != nil {
			return false, err
		}
		c.Update(func(st *State) { st.Convergence.BisectIterations++ })
		c.eng.bisectIterations.Add(1)
		return pr.Schedulable, nil
	})
	if err != nil {
		return nil, nil, iters, err
	}
	// The loop invariant holds lo schedulable and hi unschedulable: the
	// converged bracket is the critical value's witness pair.
	v, u := lo, hi
	return &v, &BracketPair{Feasible: &v, Infeasible: &u}, iters, nil
}

// bisectLoop narrows a bracket with lo schedulable and hi unschedulable
// down to a.tol(), returning the final bracket and the number of probes.
// Each probe snaps the midpoint onto the tol grid anchored at the axis
// minimum, so bisect probes the same lattice a step-tol grid would, then
// nudges it inside the open interval; the loop stops when no lattice point
// lies strictly inside (in float64, lo+tol can round back to lo).
func (a *Axis) bisectLoop(lo, hi float64, schedulable func(v float64) (bool, error)) (float64, float64, int, error) {
	tol := a.tol()
	iters := 0
	for hi-lo > tol {
		mid := a.Min + math.Floor((lo+hi-2*a.Min)/2/tol)*tol
		if mid <= lo {
			mid = lo + tol
		}
		if mid <= lo || mid >= hi {
			break
		}
		ok, err := schedulable(mid)
		if err != nil {
			return lo, hi, iters, err
		}
		iters++
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi, iters, nil
}

// evalAt evaluates base extended with param=v, treating a failed run as a
// strategy-aborting error.
func (c *Campaign) evalAt(ctx context.Context, base Point, param string, v float64) (*PointResult, error) {
	pt := make(Point, len(base)+1)
	for k, bv := range base {
		pt[k] = bv
	}
	pt[param] = v
	prs, err := c.evaluate(ctx, []Point{pt}, 1)
	if err != nil {
		return nil, err
	}
	pr := &prs[0]
	if pr.Source == SourceFailed {
		return nil, fmt.Errorf("campaign: point %s failed: %s", pt.Key(), pr.Error)
	}
	return pr, nil
}
