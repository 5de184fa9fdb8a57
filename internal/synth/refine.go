package synth

import (
	"context"
	"fmt"
)

// The refinement. Both modes are exact at lattice resolution when
// feasibility is monotone in each dimension separately (either direction
// per dimension): the extreme verdicts over a box are then attained at
// its corners, so corner-unanimous boxes are classified whole. The 1-D
// mode is the degenerate case run as a breakdown bisection — O(log N)
// oracle runs against the O(N) of a grid sweep; the multi-D mode spends
// its runs on the boundary, leaving large uniform boxes classified by
// their corners alone.

// box is an axis-aligned sub-box in lattice coordinates: inclusive
// vertex index bounds, hi[i] > lo[i] in every dimension.
type box struct {
	lo, hi []int
}

// width returns the cell width along dimension i.
func (b *box) width(i int) int { return b.hi[i] - b.lo[i] }

// cells returns the box's cell volume.
func (b *box) cells() int64 {
	n := int64(1)
	for i := range b.lo {
		n *= int64(b.width(i))
	}
	return n
}

// atomic reports whether the box is a single lattice cell in every
// dimension — the refinement floor.
func (b *box) atomic() bool {
	for i := range b.lo {
		if b.width(i) > 1 {
			return false
		}
	}
	return true
}

// corners enumerates the box's 2^d corner index vectors in a fixed
// order (dimension 0 is the lowest bit).
func (b *box) corners() [][]int {
	d := len(b.lo)
	out := make([][]int, 0, 1<<d)
	for mask := 0; mask < 1<<d; mask++ {
		idx := make([]int, d)
		for i := 0; i < d; i++ {
			if mask&(1<<i) != 0 {
				idx[i] = b.hi[i]
			} else {
				idx[i] = b.lo[i]
			}
		}
		out = append(out, idx)
	}
	return out
}

// center returns the box's center snapped onto the lattice. For an
// atomic box this coincides with the low corner.
func (b *box) center() []int {
	idx := make([]int, len(b.lo))
	for i := range b.lo {
		idx[i] = b.lo[i] + b.width(i)/2
	}
	return idx
}

// refine runs the synthesis to a complete cover and builds the region.
func (s *Synthesis) refine(ctx context.Context, space *Space) (*Region, error) {
	r := &Region{
		SchemaVersion: regionSchemaVersion,
		ID:            s.state.ID, // immutable once registered
		Name:          space.Name,
		Dims:          append([]Dim(nil), space.Dims...),
		TotalCells:    space.totalCells(),
	}
	var err error
	if len(space.Dims) == 1 {
		err = s.refine1D(ctx, space, r)
	} else {
		err = s.refineBoxes(ctx, space, r)
	}
	if r.TotalCells > 0 {
		r.Coverage = float64(r.DecidedCells) / float64(r.TotalCells)
	}
	return r, err
}

// emit appends a classified box to the region and bumps the counters;
// witness is non-nil exactly for boundary boxes.
func (s *Synthesis) emit(space *Space, r *Region, b box, verdict string, witness *Witness) {
	cells := b.cells()
	r.Boxes = append(r.Boxes, Box{
		Min:     space.values(b.lo),
		Max:     space.values(b.hi),
		Verdict: verdict,
		Cells:   cells,
	})
	s.Update(func(st *State) {
		switch verdict {
		case VerdictFeasible:
			st.Counts.BoxesFeasible++
			r.DecidedCells += cells
		case VerdictInfeasible:
			st.Counts.BoxesInfeasible++
			r.DecidedCells += cells
		case VerdictBoundary:
			st.Counts.BoxesBoundary++
			r.Boundary = append(r.Boundary, *witness)
		}
	})
	s.eng.boxesClassified.Add(1)
}

// refine1D is the exact breakdown mode: two end probes orient the
// monotone direction, a bisection pins the boundary to one lattice cell,
// and the cover is a decided prefix, the boundary cell, and a decided
// suffix. Works for both directions of monotonicity (feasibility
// shrinking or growing with the parameter value).
func (s *Synthesis) refine1D(ctx context.Context, space *Space, r *Region) error {
	n := space.Dims[0].cells()
	whole := box{lo: []int{0}, hi: []int{n}}

	f0, err := s.probe(ctx, space, 0)
	if err != nil {
		return err
	}
	fn, err := s.probe(ctx, space, n)
	if err != nil {
		return err
	}
	if f0 == fn {
		// Uniform ends: under monotonicity the whole interval matches.
		v := VerdictInfeasible
		if f0 {
			v = VerdictFeasible
		}
		s.emit(space, r, whole, v, nil)
		return nil
	}

	// Invariant: the verdict at lo differs from the verdict at hi; shrink
	// to adjacent lattice values.
	lo, hi := 0, n
	for hi-lo > 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		mid := lo + (hi-lo)/2
		fm, err := s.probe(ctx, space, mid)
		if err != nil {
			return err
		}
		s.Update(func(st *State) { st.Counts.BisectIterations++ })
		s.eng.bisectIterations.Add(1)
		if fm == f0 {
			lo = mid
		} else {
			hi = mid
		}
	}

	loVerdict, hiVerdict := VerdictFeasible, VerdictInfeasible
	w := Witness{Feasible: space.values([]int{lo}), Infeasible: space.values([]int{hi})}
	if !f0 {
		loVerdict, hiVerdict = VerdictInfeasible, VerdictFeasible
		w = Witness{Feasible: space.values([]int{hi}), Infeasible: space.values([]int{lo})}
	}
	if lo > 0 {
		s.emit(space, r, box{lo: []int{0}, hi: []int{lo}}, loVerdict, nil)
	}
	s.emit(space, r, box{lo: []int{lo}, hi: []int{hi}}, VerdictBoundary, &w)
	if hi < n {
		s.emit(space, r, box{lo: []int{hi}, hi: []int{n}}, hiVerdict, nil)
	}
	return nil
}

// refineBoxes is the multi-dimensional mode: a breadth-first wave of
// boxes, each wave's corner and center probes evaluated concurrently
// through the pool, each box then classified whole, split, or declared
// an atomic boundary cell.
func (s *Synthesis) refineBoxes(ctx context.Context, space *Space, r *Region) error {
	d := len(space.Dims)
	whole := box{lo: make([]int, d), hi: make([]int, d)}
	for i := range space.Dims {
		whole.hi[i] = space.Dims[i].cells()
	}
	queue := []box{whole}

	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Evaluate the whole wave's probes in one concurrent batch:
		// corners shared between sibling boxes (split planes) dedup here.
		var probes [][]int
		for i := range queue {
			probes = append(probes, queue[i].corners()...)
			probes = append(probes, queue[i].center())
		}
		if err := s.evaluate(ctx, space, probes...); err != nil {
			return err
		}

		var next []box
		for _, b := range queue {
			corners := b.corners()
			feasible, infeasible := 0, 0
			for _, c := range corners {
				f, ok := s.feasibleAt(c)
				if !ok {
					return fmt.Errorf("synth: internal: corner %s not evaluated", idxKey(c))
				}
				if f {
					feasible++
				} else {
					infeasible++
				}
			}
			fc, ok := s.feasibleAt(b.center())
			if !ok {
				return fmt.Errorf("synth: internal: center %s not evaluated", idxKey(b.center()))
			}
			switch {
			case infeasible == 0 && fc:
				s.emit(space, r, b, VerdictFeasible, nil)
			case feasible == 0 && !fc:
				s.emit(space, r, b, VerdictInfeasible, nil)
			case b.atomic():
				// Mixed corners at single-cell width: the boundary passes
				// through this cell. The witness is the first feasible and
				// first infeasible corner in enumeration order.
				var w Witness
				for _, c := range corners {
					f, _ := s.feasibleAt(c)
					if f && w.Feasible == nil {
						w.Feasible = space.values(c)
					}
					if !f && w.Infeasible == nil {
						w.Infeasible = space.values(c)
					}
				}
				s.emit(space, r, b, VerdictBoundary, &w)
			default:
				// Split the widest dimension (lowest index on ties) at the
				// lattice midpoint; children share the split plane, so its
				// corners are evaluated once.
				dim := 0
				for i := 1; i < d; i++ {
					if b.width(i) > b.width(dim) {
						dim = i
					}
				}
				mid := b.lo[dim] + b.width(dim)/2
				a, c := box{lo: b.lo, hi: append([]int(nil), b.hi...)}, box{lo: append([]int(nil), b.lo...), hi: b.hi}
				a.hi[dim] = mid
				c.lo[dim] = mid
				next = append(next, a, c)
				s.Update(func(st *State) { st.Counts.Splits++ })
				s.eng.splits.Add(1)
			}
		}
		queue = next
	}
	return nil
}

// probe evaluates one point of a 1-D space and returns its verdict.
func (s *Synthesis) probe(ctx context.Context, space *Space, k int) (bool, error) {
	if err := s.evaluate(ctx, space, []int{k}); err != nil {
		return false, err
	}
	f, _ := s.feasibleAt([]int{k})
	return f, nil
}
