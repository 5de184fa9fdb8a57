package main

import (
	"context"
	"testing"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/nsa"
)

// TestCampaignPoolRunsCompiled: a campaign run through the CLI's pool,
// which sets no engine backend, interprets its points on the compiled
// runtime. Only that runtime feeds the first-transition fast path and
// the bytecode guard counters.
func TestCampaignPoolRunsCompiled(t *testing.T) {
	spec, err := loadSpec("../../examples/quickstart/campaign-grid.json", "../../examples/quickstart/quickstart.xml")
	if err != nil {
		t.Fatal(err)
	}
	st, err := openStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pool := newPool(2, nil, st)
	defer pool.Close()
	if got := pool.Backend(); got != nsa.BackendCompiled {
		t.Fatalf("pool backend = %s, want compiled", got)
	}
	eng := campaign.NewEngine(pool, st, nil)
	started, err := eng.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := eng.Wait(context.Background(), started.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != campaign.StatusDone {
		t.Fatalf("campaign status %s", final.Status)
	}
	c := pool.Metrics().Engine
	if c.FirstFast == 0 || c.GuardBytecode == 0 {
		t.Errorf("engine counters first_fast=%d guard_bytecode=%d, want both > 0", c.FirstFast, c.GuardBytecode)
	}
}
