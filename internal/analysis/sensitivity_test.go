package analysis

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/trace"
)

// The WCET sensitivity analysis runs on the campaign engine with
// config.ParamTarget "wcet_pct" as its scaler. These tests hold that
// machinery to this package's oracles: the serial simulator and
// response-time analysis on single-partition FPPS systems, where
// synchronous release is the critical instant and the two must agree.

// sweepSystem is schedulable at 100% with headroom that runs out well
// before 400%: hi C=2/P=10 and lo C=9/P=20 on one core.
func sweepSystem() *config.System {
	return singlePartition(config.FPPS, []config.Task{
		{Name: "hi", Priority: 2, WCET: []int64{2}, Period: 10, Deadline: 10},
		{Name: "lo", Priority: 1, WCET: []int64{9}, Period: 20, Deadline: 20},
	})
}

// scaleWCET returns a copy of sys with every WCET at pct percent, through
// the wcet_pct parameter target the sensitivity analysis applies.
func scaleWCET(t *testing.T, sys *config.System, pct float64) *config.System {
	t.Helper()
	pt, err := config.ParseParamTarget(config.TargetWCETPct)
	if err != nil {
		t.Fatal(err)
	}
	out := sys.Clone()
	if err := pt.Apply(out, pct); err != nil {
		t.Fatalf("wcet_pct %g: %v", pct, err)
	}
	return out
}

// rtaSchedulable is the response-time verdict on a single FPPS partition.
func rtaSchedulable(t *testing.T, sys *config.System) bool {
	t.Helper()
	params, err := FromSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ResponseTimesFPPS(params) {
		if !r.Schedulable {
			return false
		}
	}
	return true
}

// serialSchedulable is the simulator's verdict from one direct run, with
// no pool, cache or campaign in between.
func serialSchedulable(t *testing.T, sys *config.System) bool {
	t.Helper()
	tr, _, err := model.MustBuild(sys).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	return a.Schedulable
}

// runSpec runs spec to completion on a fresh engine over a pool of the
// given worker count.
func runSpec(t *testing.T, workers int, spec *campaign.Spec) campaign.State {
	t.Helper()
	pool := jobs.New(jobs.Options{Workers: workers})
	defer pool.Close()
	eng := campaign.NewEngine(pool, nil, nil)
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
	if final.Status != campaign.StatusDone {
		t.Fatalf("campaign %q: status = %s (%s)", spec.Name, final.Status, final.Error)
	}
	return final
}

func TestScaleWCET(t *testing.T) {
	sys := singlePartition(config.FPPS, []config.Task{
		{Name: "T", Priority: 1, WCET: []int64{10}, Period: 40, Deadline: 40},
	})
	scaled := scaleWCET(t, sys, 150)
	if got := scaled.Partitions[0].Tasks[0].WCET[0]; got != 15 {
		t.Errorf("150%% of 10 = %d", got)
	}
	if sys.Partitions[0].Tasks[0].WCET[0] != 10 {
		t.Error("original mutated")
	}
	tiny := scaleWCET(t, sys, 1)
	if got := tiny.Partitions[0].Tasks[0].WCET[0]; got != 1 {
		t.Errorf("clamped WCET = %d, want 1", got)
	}
}

// TestSweepMatchesSerialOracle checks every point of a wcet_pct grid
// campaign against the serial simulator and RTA, across worker counts.
func TestSweepMatchesSerialOracle(t *testing.T) {
	sys := sweepSystem()
	want := map[float64]bool{}
	for pct := 40.0; pct <= 180; pct += 20 {
		scaled := scaleWCET(t, sys, pct)
		serial := serialSchedulable(t, scaled)
		if rta := rtaSchedulable(t, scaled); serial != rta {
			t.Fatalf("%g%%: serial simulator=%t RTA=%t", pct, serial, rta)
		}
		want[pct] = serial
	}
	if !want[40] || want[180] {
		t.Fatalf("oracle verdicts %v: want schedulable at 40%%, unschedulable at 180%%", want)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			final := runSpec(t, workers, &campaign.Spec{
				Name:     "sweep",
				Strategy: campaign.StrategyGrid,
				Base:     sys,
				Axes:     []campaign.Axis{{Param: campaign.ParamWCETPct, Min: 40, Max: 180, Step: 20}},
				Parallel: workers,
			})
			if len(final.Points) != len(want) {
				t.Fatalf("evaluated %d points, want %d", len(final.Points), len(want))
			}
			for _, p := range final.Points {
				pct := p.Point[campaign.ParamWCETPct]
				if w, ok := want[pct]; !ok || p.Schedulable != w {
					t.Errorf("point %g%%: schedulable=%t, want %t (known point: %t)", pct, p.Schedulable, w, ok)
				}
			}
		})
	}
}

// TestSweepAgreesWithCriticalScaling: the breakdown bisection, an
// exhaustive 1% grid and RTA at every percent find the same critical
// WCET scale.
func TestSweepAgreesWithCriticalScaling(t *testing.T) {
	sys := sweepSystem()
	bis := runSpec(t, 2, &campaign.Spec{
		Name:     "critical",
		Strategy: campaign.StrategyBisect,
		Base:     sys,
		Axes:     []campaign.Axis{{Param: campaign.ParamWCETPct, Min: 1, Max: 400, Tol: 1}},
	})
	if bis.Critical == nil {
		t.Fatal("bisection found no critical point")
	}
	grid := runSpec(t, 2, &campaign.Spec{
		Name:     "exhaustive",
		Strategy: campaign.StrategyGrid,
		Base:     sys,
		Axes:     []campaign.Axis{{Param: campaign.ParamWCETPct, Min: 1, Max: 400, Step: 1}},
		Parallel: 2,
	})
	sweepCritical := 0.0
	for _, p := range grid.Points {
		if p.Schedulable && p.Point[campaign.ParamWCETPct] > sweepCritical {
			sweepCritical = p.Point[campaign.ParamWCETPct]
		}
	}
	rtaCritical := 0.0
	for pct := 1.0; pct <= 400; pct++ {
		if rtaSchedulable(t, scaleWCET(t, sys, pct)) {
			rtaCritical = pct
		}
	}
	if sweepCritical != *bis.Critical {
		t.Fatalf("exhaustive sweep critical point %g%% != binary search %g%%", sweepCritical, *bis.Critical)
	}
	if rtaCritical != sweepCritical {
		t.Fatalf("RTA critical point %g%% != sweep critical point %g%%", rtaCritical, sweepCritical)
	}
	// 166% gives hi 3, lo 14: R_lo = 14 + 2*3 = 20; 167% makes lo 15.
	if sweepCritical != 166 {
		t.Fatalf("critical point %g%%, want 166%%", sweepCritical)
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	grid := func(min, max float64) *campaign.Spec {
		return &campaign.Spec{Name: "bad", Strategy: campaign.StrategyGrid, Base: sweepSystem(),
			Axes: []campaign.Axis{{Param: campaign.ParamWCETPct, Min: min, Max: max, Step: 1}}}
	}
	if err := grid(0, 10).Validate(); err == nil || !strings.Contains(err.Error(), ">= 1") {
		t.Fatalf("non-positive point accepted: %v", err)
	}
	if err := grid(10, 5).Validate(); err == nil || !strings.Contains(err.Error(), "max 5 < min 10") {
		t.Fatalf("inverted range accepted: %v", err)
	}
	pt, err := config.ParseParamTarget(config.TargetWCETPct)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Apply(sweepSystem(), 0); err == nil {
		t.Fatal("wcet_pct 0 applied")
	}
}
