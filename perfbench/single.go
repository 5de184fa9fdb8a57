package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"stopwatchsim/internal/compose"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/mc"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/trace"
)

// Oracles of the single workload: the paper's configurations have fixed
// answers.
const (
	industrialJobs    = 12505
	industrialActions = 81140
	industrialDelays  = 2550
	table1Jobs        = 12
	table1States      = 8294
	composeModules    = 16
)

// singleInputs are generated before anything is timed.
type singleInputs struct {
	industrialXML []byte         // §4 configuration, analysed from its bytes
	table1        *config.System // Table 1 at 12 jobs, model-checked
	multi         *config.System // 16-module system for compose
	multiVerdict  jobs.Verdict   // global-product verdict of multi
	proposed      samples        // Table 1 at 12 jobs by one interpretation
}

func prepareSingle(seed int64) (*singleInputs, error) {
	in := &singleInputs{table1: gen.Table1Config(table1Jobs), multi: gen.MultiModule(composeModules, seed)}
	var buf bytes.Buffer
	if err := gen.IndustrialConfig().WriteXML(&buf); err != nil {
		return nil, err
	}
	in.industrialXML = buf.Bytes()
	// The compose oracle is one global-product interpretation.
	ok, err := interpretVerdict(in.multi)
	if err != nil {
		return nil, fmt.Errorf("global product of %s: %w", in.multi.Name, err)
	}
	in.multiVerdict = jobs.VerdictUnschedulable
	if ok {
		in.multiVerdict = jobs.VerdictSchedulable
	}
	// The proposed approach on Table 1, for the paper-vs-measured row.
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		ok, err := interpretVerdict(in.table1)
		if err != nil || !ok {
			return nil, fmt.Errorf("table 1 at %d jobs by interpretation: schedulable %t, %v", table1Jobs, ok, err)
		}
		in.proposed.add(time.Since(t0))
	}
	return in, nil
}

// interpretVerdict is the paper's approach end to end: build, one
// interpretation, schedulability check.
func interpretVerdict(sys *config.System) (bool, error) {
	m, err := model.Build(sys)
	if err != nil {
		return false, err
	}
	tr, _, err := m.SimulateEngine(context.Background(), nsa.Options{Backend: nsa.BackendCompiled})
	if err != nil {
		return false, err
	}
	a, err := trace.Analyze(sys, tr)
	if err != nil {
		return false, err
	}
	return a.Schedulable, nil
}

// singleStats are the per-operation series of one window.
type singleStats struct {
	industrial, mcVerdict, composeVerdict samples
	parse, build, interpret, check        samples // §4 phases
	mcBuild, mcExplore                    samples
	verdicts                              int
	elapsed                               time.Duration

	// Traced windows only.
	probe    obs.Counters // summed over §4 runs
	allocs   samples      // §4 interpretation
	states   []int
	analyzed []int
}

// singleRunner owns what the operations share.
type singleRunner struct {
	in     *singleInputs
	r      *result
	rng    *rand.Rand
	tracer *obs.Tracer // nil untraced
}

// industrial analyses the §4 configuration from its XML bytes.
func (s *singleRunner) industrial(t *tree, st *singleStats) {
	ctx := context.Background()
	g := t.begin("op.industrial", 0)
	defer t.end(g)
	t0 := time.Now()
	var sys *config.System
	var m *model.Model
	var tr *trace.Trace
	var res nsa.Result
	var a *trace.Analysis
	var probe *obs.Probe
	var m0 runtime.MemStats
	if t != nil {
		probe = &obs.Probe{}
	}
	dParse, err := t.call("config.parse", g, func() (err error) {
		sys, err = config.ReadXML(bytes.NewReader(s.in.industrialXML))
		return err
	})
	var dBuild, dInterp, dCheck time.Duration
	if err == nil {
		dBuild, err = t.call("model.build", g, func() (err error) {
			m, err = model.Build(sys)
			return err
		})
	}
	if err == nil {
		if t != nil {
			runtime.ReadMemStats(&m0)
		}
		dInterp, err = t.call("nsa.interpret", g, func() (err error) {
			tr, res, err = m.SimulateEngine(ctx, nsa.Options{Backend: nsa.BackendCompiled, Probe: probe})
			return err
		})
		if t != nil {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			st.allocs = append(st.allocs, float64(m1.Mallocs-m0.Mallocs))
		}
	}
	if err == nil {
		dCheck, err = t.call("trace.check", g, func() (err error) {
			a, err = trace.Analyze(sys, tr)
			return err
		})
	}
	st.industrial.add(time.Since(t0))
	if err != nil {
		s.r.check(false, "§4 industrial: %v", err)
		return
	}
	st.verdicts++
	st.parse.add(dParse)
	st.build.add(dBuild)
	st.interpret.add(dInterp)
	st.check.add(dCheck)
	if probe != nil {
		addCounters(&st.probe, probe.Snapshot())
	}
	s.r.check(a.Schedulable && len(a.Jobs) == industrialJobs && res.Actions == industrialActions && res.Delays == industrialDelays,
		"§4 industrial: schedulable %t, %d jobs, %d actions, %d delays; want true, %d, %d, %d",
		a.Schedulable, len(a.Jobs), res.Actions, res.Delays, industrialJobs, industrialActions, industrialDelays)
}

// modelCheck answers Table 1 at 12 jobs with mc, the paper's baseline.
func (s *singleRunner) modelCheck(t *tree, st *singleStats) {
	g := t.begin("op.mc", 0)
	defer t.end(g)
	t0 := time.Now()
	var m *model.Model
	var ok bool
	var res mc.Result
	dBuild, err := t.call("model.build", g, func() (err error) {
		m, err = model.Build(s.in.table1)
		return err
	})
	var dExplore time.Duration
	if err == nil {
		dExplore, err = t.call("mc.explore", g, func() (err error) {
			ok, res, err = mc.CheckSchedulabilityContext(context.Background(), m, nsa.Budget{})
			return err
		})
	}
	st.mcVerdict.add(time.Since(t0))
	if err != nil {
		s.r.check(false, "mc table 1: %v", err)
		return
	}
	st.verdicts++
	st.mcBuild.add(dBuild)
	st.mcExplore.add(dExplore)
	st.states = append(st.states, res.States)
	s.r.check(ok && res.Complete && res.States == table1States,
		"mc table 1 at %d jobs: schedulable %t, complete %t, %d states; want true, true, %d",
		table1Jobs, ok, res.Complete, res.States, table1States)
}

// compose analyses the 16-module system on a fresh pool, so every module
// runs cold.
func (s *singleRunner) compose(t *tree, st *singleStats) {
	g := t.begin("op.compose", 0)
	defer t.end(g)
	t0 := time.Now()
	pool := jobs.New(jobs.Options{Workers: 2, Backend: nsa.BackendCompiled, Tracer: s.tracer})
	an := compose.New(pool, nil, nil)
	var res *compose.Result
	c := t.begin("compose.run", g)
	res, err := an.Run(context.Background(), s.in.multi)
	t.end(c)
	pool.Close()
	st.composeVerdict.add(time.Since(t0))
	if err != nil {
		s.r.check(false, "compose: %v", err)
		return
	}
	st.verdicts++
	st.analyzed = append(st.analyzed, res.ModulesAnalyzed)
	if t != nil && res.Trace != "" {
		t.graft(s.tracer.Trace(res.Trace), c)
	}
	s.r.check(res.Compositional && res.Verdict == s.in.multiVerdict && res.ModulesAnalyzed == composeModules,
		"compose %s: compositional %t (%s), verdict %s, %d analyzed; want true, %s (global product), %d",
		s.in.multi.Name, res.Compositional, res.Fallback, res.Verdict, res.ModulesAnalyzed, s.in.multiVerdict, composeModules)
}

// window runs cycles of the three operations, in a seeded order, until d
// has passed; each cycle is one traced operation when acc is set.
func (s *singleRunner) window(d time.Duration, acc *accounting) *singleStats {
	st := &singleStats{}
	ops := []func(*tree, *singleStats){s.industrial, s.modelCheck, s.compose}
	start := time.Now()
	for st.elapsed == 0 || st.elapsed < d {
		var t *tree
		if acc != nil {
			t = newTree(time.Now())
		}
		s.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for _, op := range ops {
			op(t, st)
		}
		if t != nil {
			t.finish(time.Now())
			acc.addTree(t)
		}
		st.elapsed = time.Since(start)
	}
	return st
}

func runSingle(o options, r *result) error {
	in, err := prepareSingle(o.seed)
	if err != nil {
		return err
	}
	s := &singleRunner{in: in, r: r, rng: rand.New(rand.NewSource(o.seed))}
	// Set-up is the warm-up: one cycle, so the heap and code paths are
	// warm before the first timed operation. Its outputs are checked too.
	_, setup, err := setupMedian(setupRuns, func() (struct{}, error) {
		s.window(0, nil)
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return err
	}
	untraced, traced := halves(o)
	st := s.window(untraced, nil)

	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	r.e2e["peak_rss_mb"] = rss
	r.e2e["throughput_per_s"] = float64(st.verdicts) / st.elapsed.Seconds()
	r.e2e["leg1_ms"] = st.industrial.median() * 1e3
	r.e2e["leg2_ms"] = st.mcVerdict.median() * 1e3
	r.e2e["leg3_ms"] = st.composeVerdict.median() * 1e3

	r.rep.add("setup_s", setup, "s", fmt.Sprintf("median of %d warm-up cycles", setupRuns))
	r.rep.add("peak_rss_mb", rss, "MB", "")
	r.rep.add("error_rate", errorRate(r), "ratio", fmt.Sprintf("%d failed of %d", r.failed, r.attempted))
	r.rep.add("verdicts_per_s", r.e2e["throughput_per_s"], "1/s", "")
	r.rep.timing("verdict_p50_s", st.industrial, "s", 1)
	r.rep.timing("mc_verdict_p50_s", st.mcVerdict, "s", 1)
	r.rep.timing("compose_verdict_p50_s", st.composeVerdict, "s", 1)
	paperRows(r, in, st)

	if o.trace {
		s.tracer = obs.NewTracer(1<<14, nil)
		acc := newAccounting()
		ts := s.window(traced, acc)
		r.addAccounting(acc)
		L := r.layer
		L["config.parse_s"] = ts.parse.median()
		L["model.build_s"] = ts.build.median()
		L["nsa.interpret_s"] = ts.interpret.median()
		L["trace.check_s"] = ts.check.median()
		L["mc.explore_s"] = ts.mcExplore.median()
		L["compose.plan_s"] = acc.durs[obs.PhasePlan].median()
		L["compose.run_s"] = acc.durs["compose.run"].median()
		L["jobs.queue_wait_s"] = acc.durs["jobs.queue"].median()
		L["jobs.run_s"] = acc.durs["jobs.run"].median()
		L["nsa.allocs"] = ts.allocs.median()
		if n := float64(len(ts.industrial)); n > 0 {
			L["nsa.steps"] = float64(ts.probe.Steps) / n
			L["nsa.guard_evals"] = float64(ts.probe.GuardEvals) / n
			L["nsa.recomputes"] = float64(ts.probe.Recomputes) / n
			L["nsa.heap_pushes"] = float64(ts.probe.HeapPushes) / n
		}
		L["mc.states"] = meanInts(ts.states)
		L["compose.modules_analyzed"] = meanInts(ts.analyzed)
		L["tracing_overhead"] = ts.industrial.median()/st.industrial.median() - 1
		r.rep.timing("traced verdict_p50_s", ts.industrial, "s", 1)
	}
	return nil
}

// paperRows prints the paper-vs-measured rows from this run's samples.
func paperRows(r *result, in *singleInputs, st *singleStats) {
	build, interp := st.build.median(), st.interpret.median()
	r.rep.add("paper §4 construction_s", build, "s", "model.Build, 12505 jobs")
	r.rep.add("paper §4 interpretation_s", interp, "s", "one compiled-backend run")
	r.rep.add("paper §4 total_s", build+interp, "s", `paper: "about 11 seconds for a configuration with 12500 jobs"`)
	mcT, prop := st.mcVerdict.median(), in.proposed.median()
	r.rep.add("paper table1 jobs=12 mc_s", mcT, "s", "model checking, build + exploration")
	r.rep.add("paper table1 jobs=12 proposed_s", prop, "s", "build + one interpretation + check, median of 5")
	r.rep.add("paper table1 jobs=12 mc/proposed", mcT/prop, "ratio", "")
}

func addCounters(dst *obs.Counters, c obs.Counters) {
	dst.Steps += c.Steps
	dst.GuardEvals += c.GuardEvals
	dst.Recomputes += c.Recomputes
	dst.HeapPushes += c.HeapPushes
}

func meanInts(v []int) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0
	for _, x := range v {
		t += x
	}
	return float64(t) / float64(len(v))
}

func errorRate(r *result) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}
