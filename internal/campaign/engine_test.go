package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/store"
)

// bdSystem is the breakdown reference: one task C=10, T=D=40 on a full
// window. Its critical WCET scale is 409% (409% of 10 truncates to 40 =
// the deadline; 410% yields 41).
func bdSystem() *config.System {
	return &config.System{
		Name:      "bd",
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
}

// runCampaign starts spec on a fresh engine and waits for the terminal
// state.
func runCampaign(t *testing.T, eng *Engine, spec *Spec) State {
	t.Helper()
	st, err := eng.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	final, err := eng.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

func TestGridCampaign(t *testing.T) {
	// The summary must not depend on the pool's worker count.
	var sums [][]byte
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pool := jobs.New(jobs.Options{Workers: workers})
			defer pool.Close()
			eng := NewEngine(pool, nil, nil)

			spec := &Spec{
				Name:     "grid",
				Strategy: StrategyGrid,
				Base:     bdSystem(),
				Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 500, Step: 100}},
				Parallel: 2,
			}
			final := runCampaign(t, eng, spec)
			if final.Status != StatusDone {
				t.Fatalf("status = %s (%s)", final.Status, final.Error)
			}
			if len(final.Points) != 5 {
				t.Fatalf("evaluated %d points, want 5", len(final.Points))
			}
			// Schedulable through 400%, not at 500%.
			want := map[float64]bool{100: true, 200: true, 300: true, 400: true, 500: false}
			for _, p := range final.Points {
				v := p.Point[ParamWCETPct]
				if p.Schedulable != want[v] {
					t.Errorf("wcet_pct=%g schedulable=%v, want %v", v, p.Schedulable, want[v])
				}
				if p.Fingerprint == "" || p.Source == SourceFailed {
					t.Errorf("point %s: fingerprint=%q source=%s", p.Point.Key(), p.Fingerprint, p.Source)
				}
			}
			if final.Convergence.Evaluations != 5 {
				t.Errorf("evaluations = %d, want 5", final.Convergence.Evaluations)
			}

			// Re-starting the identical spec returns the completed campaign
			// without re-running anything (content-addressed identity).
			again, err := eng.Start(spec)
			if err != nil {
				t.Fatal(err)
			}
			if again.ID != final.ID || again.Status != StatusDone {
				t.Fatalf("restart: id=%s status=%s", again.ID, again.Status)
			}
			if m := eng.Metrics(); m.Started != 1 {
				t.Errorf("started = %d, want 1", m.Started)
			}
			sums = append(sums, summaryJSON(t, final))
		})
	}
	sameSummaries(t, sums)
}

// TestBisectMatchesGrid is the acceptance criterion: breakdown bisection
// converges to the same critical point an exhaustive sweep finds.
func TestBisectMatchesGrid(t *testing.T) {
	// Both summaries must not depend on the pool's worker count.
	var sums [][]byte
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pool := jobs.New(jobs.Options{Workers: workers})
			defer pool.Close()
			eng := NewEngine(pool, nil, nil)

			bis := runCampaign(t, eng, &Spec{
				Name:     "bisect",
				Strategy: StrategyBisect,
				Base:     bdSystem(),
				Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 500, Tol: 1}},
			})
			if bis.Status != StatusDone {
				t.Fatalf("bisect status = %s (%s)", bis.Status, bis.Error)
			}
			if bis.Critical == nil {
				t.Fatal("bisect found no critical point")
			}

			// Exhaustive scan at the same resolution over the bracketing window.
			grid := runCampaign(t, eng, &Spec{
				Name:     "scan",
				Strategy: StrategyGrid,
				Base:     bdSystem(),
				Axes:     []Axis{{Param: ParamWCETPct, Min: 400, Max: 420, Step: 1}},
			})
			if grid.Status != StatusDone {
				t.Fatalf("grid status = %s (%s)", grid.Status, grid.Error)
			}
			sweepCritical := 0.0
			for _, p := range grid.Points {
				if p.Schedulable && p.Point[ParamWCETPct] > sweepCritical {
					sweepCritical = p.Point[ParamWCETPct]
				}
			}
			// Every scale in [400, 409] truncates C=10 to 40 (and [410,
			// 419] to 41): the first point of each configuration computes,
			// its aliases answer from a cache tier.
			seen := map[string]bool{}
			for _, p := range grid.Points {
				if seen[p.Fingerprint] && p.Source == SourceComputed {
					t.Errorf("alias point %s recomputed", p.Point.Key())
				}
				seen[p.Fingerprint] = true
			}
			if len(seen) != 3 {
				t.Errorf("scan covers %d configurations, want 3 (WCET 40, 41, 42)", len(seen))
			}
			if sweepCritical != 409 {
				t.Fatalf("exhaustive sweep critical = %g, want 409", sweepCritical)
			}
			if *bis.Critical != sweepCritical {
				t.Fatalf("bisect critical %g != sweep critical %g", *bis.Critical, sweepCritical)
			}
			// The witness bracket localizes the breakdown to one tol-wide step:
			// critical itself schedulable, critical+tol unschedulable.
			if b := bis.Bracket; b == nil || b.Feasible == nil || b.Infeasible == nil ||
				*b.Feasible != 409 || *b.Infeasible != 410 {
				t.Fatalf("bisect bracket = %+v, want [409 schedulable, 410 unschedulable]", bis.Bracket)
			}
			// Bisection must be cheaper than scanning the full range.
			if bis.Convergence.Evaluations >= 40 {
				t.Errorf("bisect used %d evaluations", bis.Convergence.Evaluations)
			}
			sums = append(sums, append(summaryJSON(t, bis), summaryJSON(t, grid)...))
		})
	}
	sameSummaries(t, sums)
}

// summaryJSON renders a state's export summary.
func summaryJSON(t *testing.T, st State) []byte {
	t.Helper()
	b, err := json.Marshal(st.Summarize())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameSummaries fails unless every run exported the same bytes.
func sameSummaries(t *testing.T, sums [][]byte) {
	t.Helper()
	for i := 1; i < len(sums); i++ {
		if !bytes.Equal(sums[i], sums[0]) {
			t.Errorf("summary of run %d differs from run 0:\n%s\n%s", i, sums[i], sums[0])
		}
	}
}

// TestBisectDegenerateEnds pins breakdown answers of bisect on wcet_pct:
// interior critical points, and both degenerate ends — an interval
// schedulable throughout reports its maximum, one schedulable nowhere
// reports nil.
func TestBisectDegenerateEnds(t *testing.T) {
	pool := jobs.New(jobs.Options{Workers: 1})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	// fpps builds one full-window FPPS partition over tasks of one period.
	fpps := func(tasks ...config.Task) *config.System {
		sys := bdSystem()
		sys.Partitions[0].Tasks = tasks
		sys.Partitions[0].Windows[0].End = tasks[0].Period
		return sys
	}
	pair := func(c, p int64) *config.System {
		return fpps(
			config.Task{Name: "A", Priority: 2, WCET: []int64{c}, Period: p, Deadline: p},
			config.Task{Name: "B", Priority: 1, WCET: []int64{c}, Period: p, Deadline: p})
	}
	// Three tasks due every 2 ticks overload the core even with every
	// WCET clamped to 1.
	crowded := fpps(
		config.Task{Name: "A", Priority: 3, WCET: []int64{1}, Period: 2, Deadline: 2},
		config.Task{Name: "B", Priority: 2, WCET: []int64{1}, Period: 2, Deadline: 2},
		config.Task{Name: "C", Priority: 1, WCET: []int64{1}, Period: 2, Deadline: 2})
	for _, tc := range []struct {
		name               string
		base               *config.System
		min, max           float64
		crit, feas, infeas float64 // 0: absent
	}{
		// C=10, T=D=40: 409% of 10 truncates to 40, 410% is 41.
		{"known answer", bdSystem(), 1, 1000, 409, 409, 410},
		// Two tasks C=5, T=D=20: 219% gives 10+10, 220% gives 11+11 > 20.
		{"two tasks", pair(5, 20), 1, 400, 219, 219, 220},
		// C=100 each against a 20-tick frame: WCETs must shrink to 10%.
		{"overloaded shrinks", pair(100, 20), 1, 400, 10, 10, 11},
		{"bound reached", fpps(config.Task{Name: "T", Priority: 1, WCET: []int64{1}, Period: 40, Deadline: 40}), 1, 150, 150, 150, 0},
		{"all schedulable", bdSystem(), 50, 300, 300, 300, 0},
		{"none schedulable", bdSystem(), 500, 900, 0, 0, 500},
		{"overloaded at the minimum", crowded, 1, 400, 0, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := runCampaign(t, eng, &Spec{
				Name: tc.name, Strategy: StrategyBisect, Base: tc.base,
				Axes: []Axis{{Param: ParamWCETPct, Min: tc.min, Max: tc.max, Tol: 1}},
			})
			if st.Status != StatusDone {
				t.Fatalf("status = %s (%s)", st.Status, st.Error)
			}
			if got := orZero(st.Critical); got != tc.crit {
				t.Errorf("critical = %g, want %g (0: nil)", got, tc.crit)
			}
			b := st.Bracket
			if b == nil || orZero(b.Feasible) != tc.feas || orZero(b.Infeasible) != tc.infeas {
				t.Errorf("bracket = %+v, want [%g schedulable, %g unschedulable] (0: absent)", b, tc.feas, tc.infeas)
			}
		})
	}
}

// orZero dereferences an optional value, 0 when absent.
func orZero(v *float64) float64 {
	if v == nil {
		return 0
	}
	return *v
}

func TestFrontierCampaign(t *testing.T) {
	base := bdSystem()
	base.Partitions[0].Policy = config.RR
	base.Partitions[0].Quantum = 1

	pool := jobs.New(jobs.Options{Workers: 2})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	final := runCampaign(t, eng, &Spec{
		Name:     "frontier",
		Strategy: StrategyFrontier,
		Base:     base,
		Axes: []Axis{
			{Param: ParamQuantum, Min: 1, Max: 3, Step: 1},
			{Param: ParamWCETPct, Min: 100, Max: 500, Tol: 1},
		},
	})
	if final.Status != StatusDone {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if len(final.Frontier) != 3 {
		t.Fatalf("frontier rows = %d, want 3", len(final.Frontier))
	}
	// A single task ignores the RR quantum, so every row's critical point
	// is the FPPS breakdown value, and rows after the first must reuse the
	// previous row's bracket.
	for _, r := range final.Frontier {
		if r.Critical == nil || *r.Critical != 409 {
			t.Errorf("row %g: critical = %v, want 409", r.Row, r.Critical)
		}
	}
	if final.Convergence.BracketReuses != 2 {
		t.Errorf("bracket reuses = %d, want 2", final.Convergence.BracketReuses)
	}
	if final.Convergence.FrontierRows != 3 {
		t.Errorf("frontier rows counter = %d, want 3", final.Convergence.FrontierRows)
	}
}

// TestResumeSkipsCompleted is the crash-resume contract: a campaign whose
// checkpoint lost its last points (simulated crash between checkpoints)
// resumes on a fresh engine and pool, answers the retained points from the
// checkpoint without touching the pool, and completes only the remainder.
func TestResumeSkipsCompleted(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{PinnedKinds: []string{StoreKind()}})
	if err != nil {
		t.Fatal(err)
	}

	spec := &Spec{
		Name:     "resume",
		Strategy: StrategyGrid,
		Base:     bdSystem(),
		Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 500, Step: 50}},
		Parallel: 1,
	}

	pool1 := jobs.New(jobs.Options{Workers: 1, Store: st})
	eng1 := NewEngine(pool1, st, nil)
	final := runCampaign(t, eng1, spec)
	if final.Status != StatusDone {
		t.Fatalf("first run status = %s (%s)", final.Status, final.Error)
	}
	total := len(final.Points)
	if total != 9 {
		t.Fatalf("first run evaluated %d points, want 9", total)
	}
	pool1.Close()

	// Rewind the checkpoint: drop the last 3 points and mark the campaign
	// running again, as if the process died before they were recorded.
	rewound := final.clone()
	rewound.Points = rewound.Points[:total-3]
	rewound.Status = StatusRunning
	if err := st.Put(StoreKind(), rewound.ID, &rewound); err != nil {
		t.Fatal(err)
	}
	// Drop the pool-tier outcomes for those 3 points too, so resume must
	// actually recompute them (not just disk-hit).
	for _, p := range final.Points[total-3:] {
		if err := st.Delete("outcome", p.Fingerprint); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// "Restart": reopen the store, fresh pool and engine, ResumeAll.
	st2, err := store.Open(dir, store.Options{PinnedKinds: []string{StoreKind()}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	pool2 := jobs.New(jobs.Options{Workers: 1, Store: st2})
	defer pool2.Close()
	eng2 := NewEngine(pool2, st2, nil)

	resumed := eng2.ResumeAll()
	if len(resumed) != 1 || resumed[0] != final.ID {
		t.Fatalf("resumed = %v, want [%s]", resumed, final.ID)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	done, err := eng2.Wait(ctx, final.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("resumed status = %s (%s)", done.Status, done.Error)
	}
	if len(done.Points) != total {
		t.Fatalf("resumed campaign has %d points, want %d", len(done.Points), total)
	}
	// The retained points answer from the checkpoint; exactly the dropped
	// 3 go through the pool and are recomputed.
	if got := done.Convergence.CheckpointHits; got != total-3 {
		t.Errorf("checkpoint hits = %d, want %d", got, total-3)
	}
	m := eng2.Metrics()
	if m.PointsCheckpoint != int64(total-3) {
		t.Errorf("points_checkpoint = %d, want %d", m.PointsCheckpoint, total-3)
	}
	if m.PointsComputed != 3 {
		t.Errorf("points_computed = %d, want 3", m.PointsComputed)
	}
	if pm := pool2.Metrics(); pm.Done != 3 {
		t.Errorf("pool finished %d jobs, want 3", pm.Done)
	}
	if m.Resumed != 1 {
		t.Errorf("resumed counter = %d, want 1", m.Resumed)
	}
}

// TestResumeDiskTier covers the other crash window: points the pool
// persisted but whose campaign checkpoint was lost entirely resume via the
// disk tier without re-running the engine.
func TestResumeDiskTier(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{PinnedKinds: []string{StoreKind()}})
	if err != nil {
		t.Fatal(err)
	}

	spec := &Spec{
		Name:     "disk-resume",
		Strategy: StrategyGrid,
		Base:     bdSystem(),
		Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 300, Step: 100}},
		Parallel: 1,
	}
	pool1 := jobs.New(jobs.Options{Workers: 1, Store: st})
	eng1 := NewEngine(pool1, st, nil)
	final := runCampaign(t, eng1, spec)
	if final.Status != StatusDone {
		t.Fatalf("first run status = %s", final.Status)
	}
	pool1.Close()
	// Lose the campaign checkpoint but keep the pool outcomes.
	if err := st.Delete(StoreKind(), final.ID); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.Open(dir, store.Options{PinnedKinds: []string{StoreKind()}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	pool2 := jobs.New(jobs.Options{Workers: 1, Store: st2})
	defer pool2.Close()
	eng2 := NewEngine(pool2, st2, nil)
	redo := runCampaign(t, eng2, spec)
	if redo.Status != StatusDone {
		t.Fatalf("redo status = %s (%s)", redo.Status, redo.Error)
	}
	for _, p := range redo.Points {
		if p.Source != SourceDisk {
			t.Errorf("point %s source = %s, want %s", p.Point.Key(), p.Source, SourceDisk)
		}
	}
	if m := eng2.Metrics(); m.PointsCacheDisk != 3 || m.PointsComputed != 0 {
		t.Errorf("disk=%d computed=%d, want 3/0", m.PointsCacheDisk, m.PointsComputed)
	}
}

func TestCancelCampaign(t *testing.T) {
	pool := jobs.New(jobs.Options{Workers: 1})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	// A wide, fine grid gives cancellation a window to land in.
	st, err := eng.Start(&Spec{
		Name:      "cancel",
		Strategy:  StrategyGrid,
		Base:      bdSystem(),
		Axes:      []Axis{{Param: ParamWCETPct, Min: 100, Max: 2000, Step: 1}},
		Parallel:  1,
		MaxPoints: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Cancel(st.ID) {
		// The campaign may already have finished on a fast machine; accept
		// either terminal outcome below.
		t.Log("cancel raced completion")
	}
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	final, err := eng.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled && final.Status != StatusDone {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if eng.Cancel(st.ID) {
		t.Error("canceling a terminal campaign reported success")
	}
}

func TestUnknownCampaign(t *testing.T) {
	pool := jobs.New(jobs.Options{Workers: 1})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)
	if _, ok := eng.Get("nope"); ok {
		t.Error("Get on unknown id succeeded")
	}
	if eng.Cancel("nope") {
		t.Error("Cancel on unknown id succeeded")
	}
	if _, err := eng.Wait(context.Background(), "nope"); err != ErrUnknownCampaign {
		t.Errorf("Wait err = %v", err)
	}
}
