// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every output against an oracle, and prints a
// report followed by one JSON result line:
//
//	perfbench --workload single|sweep|service --seed N --seconds S --trace 0|1
//
// Workloads (see README.md for why each exists):
//
//   - single: one caller analysing one large system at a time — the §4
//     industrial configuration from XML to verdict, Table 1 at 12 jobs
//     model-checked by mc, and a 16-module system through compose.
//   - sweep: the 768-point generic-EDF grid as a campaign on a fresh
//     store, the same grid again from the warm store, then the committed
//     generic-EDF region synthesis.
//   - service: the saserve binary driven over loopback in rounds of
//     first submits of new configurations, repeat submits of them and
//     compose edits, each timed as a series of its own.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the window is split into an untraced and a traced half, and the result
// carries the per-layer metrics of the traced half.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	repo     string // repository root: example inputs and goldens
	work     string // scratch directory for stores, removed at exit
	saserve  string // saserve binary built from the repository
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload with --trace 0. Each workload fills the three legs with its own
// operations (README.md has the table).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"leg1_ms", "ms"},
	{"leg2_ms", "ms"},
	{"leg3_ms", "ms"},
}

// perLayer are the single-layer metrics printed by every workload with
// --trace 1; a layer the workload does not use reads 0.
var perLayer = []struct{ name, unit string }{
	{"config.parse_s", "s"},
	{"model.build_s", "s"},
	{"model.build_share", "ratio"},
	{"nsa.interpret_s", "s"},
	{"nsa.allocs", "count"},
	{"nsa.steps", "count"},
	{"nsa.guard_evals", "count"},
	{"nsa.recomputes", "count"},
	{"nsa.heap_pushes", "count"},
	{"trace.check_s", "s"},
	{"mc.explore_s", "s"},
	{"mc.states", "count"},
	{"compose.plan_s", "s"},
	{"compose.run_s", "s"},
	{"compose.modules_analyzed", "count"},
	{"compose.modules_cached_ratio", "ratio"},
	{"jobs.queue_wait_s", "s"},
	{"jobs.run_s", "s"},
	{"jobs.engine_reuse_ratio", "ratio"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.duplicate_computes", "count"},
	{"store.put_s", "s"},
	{"store.get_s", "s"},
	{"store.puts_per_point", "count"},
	{"store.write_bytes_per_point", "B"},
	{"store.write_calls_per_point", "count"},
	{"synth.points", "count"},
	{"http.overhead_s", "s"},
	{"config.self_s", "s"},
	{"model.self_s", "s"},
	{"nsa.self_s", "s"},
	{"trace.self_s", "s"},
	{"mc.self_s", "s"},
	{"compose.self_s", "s"},
	{"jobs.self_s", "s"},
	{"store.self_s", "s"},
	{"campaign.self_s", "s"},
	{"synth.self_s", "s"},
	{"http.self_s", "s"},
	{"unexplained_s", "s"},
	{"traced_op_s", "s"},
	{"tracing_overhead", "ratio"},
}

// result collects one run's outcome.
type result struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	layer             map[string]float64
	rep               report
}

// check counts one attempted operation, failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// addAccounting fills the layer self times of a traced window: per
// operation, the seconds each layer spent outside its children, the
// unexplained remainder and the operation's mean duration.
func (r *result) addAccounting(a *accounting) {
	op := a.perOp(a.wall)
	share := func(v float64) string { return fmt.Sprintf("%5.1f%% of a traced operation", 100*v/op) }
	for _, l := range layers {
		v := a.perOp(a.self[l])
		r.layer[l+".self_s"] = v
		if v > 0 {
			r.rep.add(l+".self_s", v, "s", share(v))
		}
	}
	rest := a.perOp(a.wall - a.explained())
	r.layer["unexplained_s"] = rest
	r.layer["traced_op_s"] = op
	r.rep.add("unexplained_s", rest, "s", share(rest))
	r.rep.add("traced_op_s", op, "s", fmt.Sprintf("mean of %d traced operations", a.ops))
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var seconds float64
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: single, sweep or service")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.StringVar(&o.repo, "repo", ".", "repository root")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory")
	flag.StringVar(&o.saserve, "saserve", "", "saserve binary (service workload)")
	flag.Parse()
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = traceFlag == 1
	if o.window <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	workloads := map[string]func(options, *result) error{
		"single":  runSingle,
		"sweep":   runSweep,
		"service": runService,
	}
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (single, sweep, service)\n", o.workload)
		return 2
	}
	// Load comes from one process on at most two threads.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	o.work = filepath.Join(o.work, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.work)

	r := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	if err := wl(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return r.print(o)
}

// print writes the report and the result line, and returns the exit code:
// non-zero when any output was wrong.
func (r *result) print(o options) int {
	fmt.Printf("workload %s, seed %d, window %s, trace %t\n", o.workload, o.seed, o.window, o.trace)
	r.rep.print()
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", f)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]metric{}}
	if o.trace {
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{r.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{r.e2e[m.name], m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// setupRuns is how many times each workload sets up; setup_s is the
// median.
const setupRuns = 15

// setupMedian runs setup n times, keeping the last result, and returns
// the median set-up time: set-up is measured several times so that work
// moved into it shows without one noisy sample deciding.
func setupMedian[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var s samples
	var v T
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(v)
		}
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, 0, err
		}
		s.add(time.Since(t0))
	}
	return v, s.median(), nil
}

// halves splits the window for a traced run: the untraced half gives the
// baseline the tracing overhead is measured against.
func halves(o options) (untraced, traced time.Duration) {
	if !o.trace {
		return o.window, 0
	}
	return o.window / 2, o.window / 2
}
