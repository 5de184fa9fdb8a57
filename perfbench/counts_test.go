package main

import (
	"testing"
	"time"
)

// deterministicCounts are the per-layer metrics that count work rather
// than time it; at one seed they must repeat exactly, run after run.
var deterministicCounts = map[string][]string{
	"single": {"nsa.steps", "nsa.guard_evals", "nsa.recomputes", "nsa.heap_pushes", "mc.states", "compose.modules_analyzed"},
	"sweep":  {"store.puts_per_point", "synth.points"},
}

// TestCountsRepeat runs each workload twice at one seed with tracing on
// and requires every deterministic count to repeat exactly and every
// output to be correct.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the single and sweep workloads twice each")
	}
	workloads := map[string]func(options, *result) error{"single": runSingle, "sweep": runSweep}
	for name, counts := range deterministicCounts {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			o := options{workload: name, seed: 7, window: time.Second, trace: true, repo: "..", work: t.TempDir()}
			r := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
			if err := workloads[name](o, r); err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			if r.failed > 0 || r.attempted == 0 {
				t.Fatalf("%s run %d: %d of %d operations wrong: %v", name, i, r.failed, r.attempted, r.failures)
			}
			if i == 0 {
				first = r.layer
				for _, c := range counts {
					if first[c] == 0 {
						t.Errorf("%s: %s is 0", name, c)
					}
				}
				continue
			}
			for _, c := range counts {
				if r.layer[c] != first[c] {
					t.Errorf("%s: %s = %v, then %v", name, c, first[c], r.layer[c])
				}
			}
		}
	}
}
