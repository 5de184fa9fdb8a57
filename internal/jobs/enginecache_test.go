package jobs

import (
	"context"
	"reflect"
	"testing"

	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
)

// TestPoolEngineReuse drives the per-worker prepared-engine cache through
// the pool with the result cache disabled (so repeat submissions really
// re-run): the second run of a configuration must Reset+Run the cached
// engine — counted in EngineReuses — and produce an outcome identical to
// the first, with a different configuration interleaved between them to
// probe for cross-configuration leakage.
func TestPoolEngineReuse(t *testing.T) {
	p := New(Options{Workers: 1, CacheSize: -1})
	defer p.Close()

	runOne := func(wcet int64) *Outcome {
		t.Helper()
		jb, err := p.Submit(ConfigRun{Sys: testSystem(wcet)})
		if err != nil {
			t.Fatal(err)
		}
		done, err := p.Wait(context.Background(), jb.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != StatusDone {
			t.Fatalf("job status %s: %v", done.Status, done.Err)
		}
		if done.CacheHit {
			t.Fatal("result cache is disabled yet the job hit it")
		}
		return done.Outcome
	}

	first := runOne(9)
	other := runOne(5) // different fingerprint: must not contaminate the cached engine
	second := runOne(9)
	otherAgain := runOne(5)

	if got := p.Metrics().EngineReuses; got != 2 {
		t.Fatalf("EngineReuses = %d, want 2 (one per repeated configuration)", got)
	}
	for _, pair := range []struct {
		name string
		a, b *Outcome
	}{{"wcet=9", first, second}, {"wcet=5", other, otherAgain}} {
		if pair.a.Verdict != pair.b.Verdict {
			t.Errorf("%s: verdict %s vs %s", pair.name, pair.a.Verdict, pair.b.Verdict)
		}
		if !reflect.DeepEqual(pair.a.Trace.Events, pair.b.Trace.Events) {
			t.Errorf("%s: reused-engine trace diverged from the fresh run", pair.name)
		}
		if pair.a.Engine != pair.b.Engine {
			t.Errorf("%s: engine result %+v vs %+v", pair.name, pair.a.Engine, pair.b.Engine)
		}
		if pair.a.Analysis.Schedulable != pair.b.Analysis.Schedulable {
			t.Errorf("%s: schedulability verdicts diverged", pair.name)
		}
	}
}

// TestConfigRunOutsidePool pins the direct path library callers take:
// ConfigRun.Run outside a pool worker has no engine cache, prepares a
// one-shot engine, and answers exactly as a pooled run does.
func TestConfigRunOutsidePool(t *testing.T) {
	direct, err := ConfigRun{Sys: testSystem(9)}.Run(context.Background(), nsa.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{Workers: 1, CacheSize: -1})
	defer p.Close()
	jb, err := p.Submit(ConfigRun{Sys: testSystem(9)})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := p.Wait(context.Background(), jb.ID)
	if err != nil || pooled.Status != StatusDone {
		t.Fatalf("pooled run: %v %v", err, pooled.Err)
	}
	if direct.Verdict != pooled.Outcome.Verdict || direct.Engine != pooled.Outcome.Engine ||
		!reflect.DeepEqual(direct.Trace.Events, pooled.Outcome.Trace.Events) {
		t.Fatal("direct run diverged from the pooled run")
	}
	if direct.Telemetry == nil || len(direct.Telemetry.Phases) == 0 {
		t.Fatal("direct run carries no telemetry")
	}
}

// TestEngineCacheEviction exercises the LRU and checkout semantics
// directly: capacity bounds the entry count, get removes, and a dropped
// (never re-put) engine is gone.
func TestEngineCacheEviction(t *testing.T) {
	hits := 0
	c := newEngineCache(2, func() { hits++ })
	// Empty Prepared sentinels: the cache bookkeeping under test never
	// dereferences its values.
	c.put("a", &model.Prepared{})
	c.put("b", &model.Prepared{})
	c.put("c", &model.Prepared{}) // evicts a
	if _, ok := c.m["a"]; ok {
		t.Fatal("capacity-2 cache kept 3 entries")
	}
	if len(c.keys) != 2 {
		t.Fatalf("keys = %v, want 2 entries", c.keys)
	}
	c.get("b")
	if _, ok := c.m["b"]; ok {
		t.Fatal("get did not check the entry out")
	}
	if hits != 1 {
		t.Fatalf("onHit fired %d times, want 1", hits)
	}
	if c.get("b") != nil || hits != 1 {
		t.Fatal("checked-out entry served again")
	}
}
