package explore_test

// Kernel behaviour no campaign or synth test pins down: the inert
// registration of an interrupted checkpoint, and the two answers the
// kinds give to a point whose retries are exhausted.

import (
	"context"
	"strings"
	"testing"
	"time"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/fault"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/store"
	"stopwatchsim/internal/synth"
)

// edfSystem is one EDF task pair on a full window: schedulable iff
// Ca + 5 <= 10.
func edfSystem() *config.System {
	return &config.System{
		Name:      "kernel",
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

func gridSpec() *campaign.Spec {
	return &campaign.Spec{
		Name:           "kernel-grid",
		Strategy:       campaign.StrategyGrid,
		Base:           edfSystem(),
		Axes:           []campaign.Axis{{Param: "target:wcet:P1.a", Min: 1, Max: 3, Step: 1}},
		Parallel:       1,
		Retries:        1,
		RetryBackoffMS: 1,
	}
}

func faultyPool(limit int64) *jobs.Pool {
	return jobs.New(jobs.Options{
		Workers: 1,
		Faults: fault.New(fault.Plan{Seed: 1, Rules: []fault.Rule{
			{Site: fault.SiteCampaignPoint, Kind: fault.KindError, Every: 1, Limit: limit},
		}}),
	})
}

// TestRegisterAllRunningCheckpointDoesNotHang: status and export tooling
// register an interrupted checkpoint without relaunching it; Wait must
// answer with its stored state instead of blocking on a run nobody
// drives.
func TestRegisterAllRunningCheckpointDoesNotHang(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{PinnedKinds: []string{campaign.StoreKind()}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pool := jobs.New(jobs.Options{Workers: 1, Store: st})
	defer pool.Close()

	first := campaign.NewEngine(pool, st, nil)
	started, err := first.Start(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	final, err := first.Wait(t.Context(), started.ID)
	if err != nil {
		t.Fatal(err)
	}
	final.Status = campaign.StatusRunning // as if killed mid-run
	if err := st.Put(campaign.StoreKind(), final.ID, &final); err != nil {
		t.Fatal(err)
	}
	submitted := pool.Metrics().Submitted

	inert := campaign.NewEngine(pool, st, nil)
	inert.RegisterAll()
	ctx, cancel := context.WithTimeout(t.Context(), time.Second)
	defer cancel()
	got, err := inert.Wait(ctx, final.ID)
	if err != nil {
		t.Fatalf("Wait on an inert running checkpoint: %v", err)
	}
	if got.Status != campaign.StatusRunning || len(got.Points) != len(final.Points) {
		t.Errorf("inert state: status %s, %d points; want running, %d", got.Status, len(got.Points), len(final.Points))
	}
	if inert.Cancel(final.ID) {
		t.Error("Cancel succeeded on a run nobody drives")
	}
	if n := pool.Metrics().Submitted; n != submitted {
		t.Errorf("inert registration submitted %d jobs", n-submitted)
	}
}

// TestExhaustedRetriesQuarantineOrAbort drives the campaign-point fault
// site until a point's retries run out: a campaign quarantines the point
// and finishes its grid, a synthesis aborts.
func TestExhaustedRetriesQuarantineOrAbort(t *testing.T) {
	t.Run("campaign quarantines", func(t *testing.T) {
		pool := faultyPool(2) // the first point's attempt and its one retry
		defer pool.Close()
		eng := campaign.NewEngine(pool, nil, nil)
		started, err := eng.Start(gridSpec())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
		defer cancel()
		final, err := eng.Wait(ctx, started.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != campaign.StatusDone || len(final.Points) != 3 {
			t.Fatalf("status %s with %d points, want done with 3", final.Status, len(final.Points))
		}
		if p := final.Points[0]; p.Source != campaign.SourceFailed || p.Error == "" {
			t.Errorf("first point: source %s error %q, want quarantined", p.Source, p.Error)
		}
		if c := final.Convergence; c.Failed != 1 || c.Retries != 1 {
			t.Errorf("convergence failed=%d retries=%d, want 1/1", c.Failed, c.Retries)
		}
		res := pool.Resilience()
		if res.PointsQuarantined.Load() != 1 || res.PointRetries.Load() != 1 {
			t.Errorf("quarantined=%d retries=%d, want 1/1", res.PointsQuarantined.Load(), res.PointRetries.Load())
		}
		if m := eng.Metrics(); m.PointsFailed != 1 || m.Done != 1 {
			t.Errorf("metrics points_failed=%d done=%d, want 1/1", m.PointsFailed, m.Done)
		}
	})

	t.Run("synthesis aborts", func(t *testing.T) {
		pool := faultyPool(3) // the first point's attempt and both retries
		defer pool.Close()
		eng := synth.NewEngine(pool, nil, nil)
		started, err := eng.Start(&synth.Space{
			Name: "kernel-1d",
			Base: edfSystem(),
			Dims: []synth.Dim{{Target: "wcet:P1.a", Min: 1, Max: 10}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
		defer cancel()
		final, err := eng.Wait(ctx, started.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != synth.StatusFailed || !strings.Contains(final.Error, "point 0 failed") {
			t.Fatalf("status %s error %q, want failed at point 0", final.Status, final.Error)
		}
		if len(final.Points) != 0 {
			t.Errorf("aborted synthesis recorded %d points", len(final.Points))
		}
		res := pool.Resilience()
		if res.PointsQuarantined.Load() != 0 || res.PointRetries.Load() != 2 {
			t.Errorf("quarantined=%d retries=%d, want 0/2", res.PointsQuarantined.Load(), res.PointRetries.Load())
		}
		if m := eng.Metrics(); m.PointsFailed != 0 || m.Failed != 1 {
			t.Errorf("metrics points_failed=%d failed=%d, want 0/1", m.PointsFailed, m.Failed)
		}
	})
}
