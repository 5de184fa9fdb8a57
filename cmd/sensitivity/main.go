// Command sensitivity performs WCET sensitivity analysis with the
// stopwatch-automata model as the oracle on every probe. It is a front end
// of the campaign engine: each mode runs wcet_pct campaigns on one
// memory-only engine over one worker pool (-parallel N). The default bisect
// campaign over [1, -max] finds the largest scaling of every WCET that
// stays schedulable; -sweep lo:hi:step runs one grid campaign and -points
// a,b,c one single-value grid per point, led by a 100% row when no point
// covers it (a row whose configuration an earlier row evaluated is marked
// cached).
//
// The unscaled configuration first runs as a plain job on the pool, so its
// failures keep their typed exit codes. A point that fails inside a
// campaign ends the run with exit 1 and the point's error, as `campaign
// run` does. Exit codes follow internal/diag: 0 the unscaled configuration
// is schedulable, 1 operational error or failed point, 2 usage (including a
// malformed -sweep or -points), 3 the unscaled configuration is not
// schedulable, 4 budget exhausted or interrupted, 5 model diagnostic, 6
// invalid configuration.
//
// Usage:
//
//	sensitivity -config system.xml [-max 400] [-sweep lo:hi:step]
//	            [-points 60,80,120] [-parallel N] [-json out.json]
//	            [-max-steps N] [-timeout D] [-max-mem-mb N]
//	            [-report out.json]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/diag"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
)

var (
	configPath = flag.String("config", "", "system configuration XML (required)")
	maxPct     = flag.Int64("max", 400, "upper bound of the binary search, in percent")
	sweepSpec  = flag.String("sweep", "", "evaluate a lo:hi:step percentage grid instead of binary search")
	pointsSpec = flag.String("points", "", "comma-separated percentage points to evaluate")
	parallel   = flag.Int("parallel", runtime.NumCPU(), "concurrent analysis runs in sweep mode")
	jsonOut    = flag.String("json", "", "write the analysis result as JSON to this file")
	reportPath = flag.String("report", "", "write a JSON error/diagnostic report to this file on failure")
)

func main() {
	budget := diag.BudgetFlags()
	logger := obs.LogFlags()
	flag.Parse()
	lg := logger() // install the structured default logger (-log-level, -log-format)
	if *configPath == "" || (*sweepSpec != "" && *pointsSpec != "") {
		flag.Usage()
		os.Exit(diag.ExitUsage)
	}
	grids, err := parseGrid(*sweepSpec, *pointsSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(diag.ExitUsage)
	}
	ctx, stop := diag.SignalContext()
	defer stop()
	run(ctx, lg, grids, budget())
}

// resultDoc is the -json output: the verdict document of one sensitivity
// analysis.
type resultDoc struct {
	System      string  `json:"system"`
	Fingerprint string  `json:"fingerprint"`
	Baseline    bool    `json:"baseline_schedulable"`
	CriticalPct int64   `json:"critical_pct"`
	MaxPct      int64   `json:"max_pct,omitempty"`
	Parallel    int     `json:"parallel,omitempty"`
	Points      []point `json:"points,omitempty"`
	ElapsedMS   int64   `json:"elapsed_ms"`
}

// point is one sweep row: the verdict at one WCET scaling percentage.
type point struct {
	Pct         int64         `json:"pct"`
	Schedulable bool          `json:"schedulable"`
	CacheHit    bool          `json:"cache_hit"`
	Elapsed     time.Duration `json:"elapsed_ns"`
}

// fail routes err through the diag classifier and terminates; no-op on nil.
func fail(err error) {
	diag.Exit("sensitivity", err, nil, *reportPath)
}

func run(ctx context.Context, lg *slog.Logger, grids []campaign.Axis, b nsa.Budget) {
	f, err := os.Open(*configPath)
	fail(err)
	sys, err := config.ReadXML(f)
	f.Close()
	fail(err)
	pool := jobs.New(jobs.Options{Workers: *parallel, Budget: b, Tool: "sensitivity"})
	defer pool.Close()
	eng := campaign.NewEngine(pool, nil, lg)
	doc := resultDoc{System: sys.Name, Fingerprint: sys.Fingerprint(), MaxPct: *maxPct}
	start := time.Now()

	jb, err := pool.Submit(jobs.ConfigRun{Sys: sys})
	fail(err)
	base, err := pool.Wait(ctx, jb.ID)
	if err == nil {
		err = base.Err
	}
	fail(err)
	doc.Baseline = base.Outcome.Verdict == jobs.VerdictSchedulable

	if grids != nil {
		doc.Parallel = *parallel
		doc.Points = sweep(ctx, eng, sys, grids)
		fmt.Printf("sweep of %d points, %d parallel workers (%v):\n", len(doc.Points), *parallel, time.Since(start).Round(time.Millisecond))
		for _, p := range doc.Points {
			mark := "not schedulable"
			if p.Schedulable {
				mark = "schedulable"
				doc.CriticalPct = max(doc.CriticalPct, p.Pct)
			}
			cached := ""
			if p.CacheHit {
				cached = " (cached)"
			}
			fmt.Printf("  %4d%%  %-15s %8s%s\n", p.Pct, mark, p.Elapsed.Round(time.Microsecond), cached)
		}
		fmt.Printf("largest schedulable point: %d%%\n", doc.CriticalPct)
	} else {
		fmt.Printf("baseline (100%%): schedulable=%t\n", doc.Baseline)
		st := runAll(ctx, eng, &campaign.Spec{
			Name:     "sensitivity",
			Strategy: campaign.StrategyBisect,
			Base:     sys,
			Axes:     []campaign.Axis{{Param: campaign.ParamWCETPct, Min: 1, Max: float64(*maxPct), Tol: 1}},
			Retries:  -1,
		})[0]
		if st.Critical != nil {
			doc.CriticalPct = int64(*st.Critical)
		}
		pct := doc.CriticalPct
		fmt.Printf("critical WCET scaling: %d%% (search bound %d%%, %v)\n",
			pct, *maxPct, time.Since(start).Round(time.Millisecond))
		switch {
		case pct == 0:
			fmt.Println("the configuration is unschedulable even with minimal WCETs")
		case pct < 100:
			fmt.Println("the configuration is overloaded: WCETs must shrink to fit")
		default:
			fmt.Printf("WCET headroom: ×%.2f before a deadline miss\n", float64(pct)/100)
		}
	}
	doc.ElapsedMS = time.Since(start).Milliseconds()

	if *jsonOut != "" {
		out, err := json.MarshalIndent(&doc, "", "  ")
		fail(err)
		fail(os.WriteFile(*jsonOut, append(out, '\n'), 0o666))
	}
	if !doc.Baseline {
		os.Exit(diag.ExitVerdict)
	}
}

// sweep runs one grid campaign per axis and returns their rows in axis
// order, ascending within an axis.
func sweep(ctx context.Context, eng *campaign.Engine, sys *config.System, grids []campaign.Axis) []point {
	specs := make([]*campaign.Spec, len(grids))
	for i, a := range grids {
		specs[i] = &campaign.Spec{
			Name:      fmt.Sprintf("sensitivity-%d", i), // duplicate points stay separate campaigns
			Strategy:  campaign.StrategyGrid,
			Base:      sys,
			Axes:      []campaign.Axis{a},
			Parallel:  *parallel,
			MaxPoints: int((a.Max-a.Min)/a.Step) + 1,
			Retries:   -1,
		}
	}
	// Concurrent campaigns settle a shared configuration in any order, so
	// a cache hit is decided by row order; it reports the first row's time.
	seen := map[string]time.Duration{}
	var rows []point
	for _, st := range runAll(ctx, eng, specs...) {
		pct := func(i int) float64 { return st.Points[i].Point[campaign.ParamWCETPct] }
		sort.SliceStable(st.Points, func(i, j int) bool { return pct(i) < pct(j) })
		for i, pr := range st.Points {
			d, hit := seen[pr.Fingerprint]
			if !hit {
				d = time.Duration(pr.ElapsedNS)
				seen[pr.Fingerprint] = d
			}
			rows = append(rows, point{Pct: int64(pct(i)), Schedulable: pr.Schedulable, CacheHit: hit, Elapsed: d})
		}
	}
	return rows
}

// runAll starts every spec's campaign at once on the pool and returns
// their final states in order, ending the run when a campaign or any of
// its points failed.
func runAll(ctx context.Context, eng *campaign.Engine, specs ...*campaign.Spec) []campaign.State {
	out := make([]campaign.State, len(specs))
	for i, spec := range specs {
		st, err := eng.Start(spec)
		fail(err)
		out[i] = st
	}
	for i := range out {
		st, err := eng.Wait(ctx, out[i].ID)
		fail(err)
		if st.Status != campaign.StatusDone {
			fail(errors.New(st.Error))
		}
		for _, pr := range st.Points {
			if pr.Source == campaign.SourceFailed {
				fail(fmt.Errorf("point %s failed: %s", pr.Point.Key(), pr.Error))
			}
		}
		out[i] = st
	}
	return out
}

// parseGrid turns -sweep lo:hi:step into one grid axis over wcet_pct and
// -points a,b,c into one single-value axis per point, led by a 100% axis
// when none covers the unscaled configuration; no grid (nil) selects the
// binary search.
func parseGrid(sweepSpec, pointsSpec string) ([]campaign.Axis, error) {
	// Any step gives a single-value axis one cell; a step of n also
	// advances past n at any magnitude, as validation requires.
	axis := func(lo, hi, step int64) campaign.Axis {
		return campaign.Axis{Param: campaign.ParamWCETPct, Min: float64(lo), Max: float64(hi), Step: float64(step)}
	}
	var grids []campaign.Axis
	switch {
	case sweepSpec != "":
		v, err := ints(sweepSpec, ":")
		if err != nil || len(v) != 3 || v[0] < 1 || v[1] < v[0] || v[2] < 1 {
			return nil, fmt.Errorf("sensitivity: -sweep wants lo:hi:step with 1 <= lo <= hi and step >= 1, got %q", sweepSpec)
		}
		grids = append(grids, axis(v[0], v[1], v[2]))
	case pointsSpec != "":
		v, err := ints(pointsSpec, ",")
		if err != nil {
			return nil, fmt.Errorf("sensitivity: -points %q: %w", pointsSpec, err)
		}
		for _, n := range v {
			if n < 1 {
				return nil, fmt.Errorf("sensitivity: non-positive scaling point %d", n)
			}
			grids = append(grids, axis(n, n, n))
		}
	default:
		return nil, nil
	}
	for _, a := range grids {
		if a.Min <= 100 && 100 <= a.Max && math.Mod(100-a.Min, a.Step) == 0 {
			return grids, nil
		}
	}
	return append([]campaign.Axis{axis(100, 100, 100)}, grids...), nil
}

// ints parses the sep-separated integers of s.
func ints(s, sep string) ([]int64, error) {
	var v []int64
	for _, p := range strings.Split(s, sep) {
		n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, err
		}
		v = append(v, n)
	}
	return v, nil
}
