package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/store"
	"stopwatchsim/internal/synth"
)

// The sweep grid: the examples/imi generic-EDF grid (C1 1..16 × C2
// 1..48). With C3 fixed at 8, EDF schedulability is exactly
// 2·C1 + C2 ≤ 16.
const (
	gridT1, gridT2  = 16, 48
	gridPoints      = gridT1 * gridT2
	gridSchedulable = 56
	synthPasses     = 3 // syntheses per cycle; each is short
)

func edfSchedulable(c1, c2 float64) bool { return 2*c1+c2 <= 16 }

// sweepInputs are loaded before anything is timed.
type sweepInputs struct {
	base   *config.System
	space  []byte // examples/imi/generic-edf-synth.json
	golden []byte // its committed region
	name   string // grid campaign name, from the seed
}

func prepareSweep(o options) (*sweepInputs, error) {
	imi := filepath.Join(o.repo, "examples", "imi")
	f, err := os.Open(filepath.Join(imi, "generic-edf.xml"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	in := &sweepInputs{name: fmt.Sprintf("generic-edf-grid-s%d", o.seed)}
	if in.base, err = config.ReadXML(f); err != nil {
		return nil, err
	}
	if in.space, err = os.ReadFile(filepath.Join(imi, "generic-edf-synth.json")); err != nil {
		return nil, err
	}
	if in.golden, err = os.ReadFile(filepath.Join(imi, "generic-edf-region.golden.json")); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *sweepInputs) gridSpec(name string, t1, t2 int) (*campaign.Spec, error) {
	spec := &campaign.Spec{
		Name:     name,
		Strategy: campaign.StrategyGrid,
		Base:     in.base,
		Axes: []campaign.Axis{
			{Param: "target:wcet:APP.t1", Min: 1, Max: float64(t1), Step: 1},
			{Param: "target:wcet:APP.t2", Min: 1, Max: float64(t2), Step: 1},
		},
		Parallel: 4,
	}
	return spec, spec.Validate()
}

// sweepRunner owns what the passes share.
type sweepRunner struct {
	o      options
	in     *sweepInputs
	r      *result
	tracer *obs.Tracer // nil untraced
	stores int         // stores opened, naming each a fresh directory
}

// openStore opens a fresh store under the run's scratch directory.
func (s *sweepRunner) openStore(name string) (*store.Store, error) {
	s.stores++
	dir := filepath.Join(s.o.work, fmt.Sprintf("%s-%d", name, s.stores))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return store.Open(dir, store.Options{PinnedKinds: []string{campaign.StoreKind()}})
}

func (s *sweepRunner) pool(st *store.Store) *jobs.Pool {
	return jobs.New(jobs.Options{Workers: 2, Tool: "campaign", Store: st, Tracer: s.tracer})
}

// cold is a fresh store and pool, ready for a cycle's first pass.
type cold struct {
	st   *store.Store
	pool *jobs.Pool
}

func (c cold) close() {
	c.pool.Close()
	c.st.Close()
}

// setup opens the store and pool of the first cycle, after a 192-point
// warm-up grid without a store (shared points would turn into disk hits).
func (s *sweepRunner) setup() (cold, error) {
	wpool := s.pool(nil)
	spec, err := s.in.gridSpec("warmup", 8, 24)
	if err == nil {
		_, err = s.grid(wpool, nil, spec)
	}
	wpool.Close()
	if err != nil {
		return cold{}, fmt.Errorf("warm-up grid: %w", err)
	}
	return s.fresh()
}

// fresh opens the store and pool of a cycle.
func (s *sweepRunner) fresh() (cold, error) {
	st, err := s.openStore("grid")
	if err != nil {
		return cold{}, err
	}
	return cold{st, s.pool(st)}, nil
}

// grid runs one campaign to completion.
func (s *sweepRunner) grid(pool *jobs.Pool, st *store.Store, spec *campaign.Spec) (campaign.State, error) {
	eng := campaign.NewEngine(pool, st, nil)
	started, err := eng.Start(spec)
	if err != nil {
		return campaign.State{}, err
	}
	final, err := eng.Wait(context.Background(), started.ID)
	if err == nil && final.Status != campaign.StatusDone {
		err = fmt.Errorf("campaign %s ended %s: %s", spec.Name, final.Status, final.Error)
	}
	return final, err
}

// checkGrid counts every point as one operation: its verdict must match
// the analytic EDF bound and its source the expected tier.
func (s *sweepRunner) checkGrid(final campaign.State, source string) {
	sched := 0
	for _, p := range final.Points {
		c1, c2 := p.Point["target:wcet:APP.t1"], p.Point["target:wcet:APP.t2"]
		if p.Schedulable {
			sched++
		}
		s.r.check(p.Schedulable == edfSchedulable(c1, c2) && p.Source == source,
			"grid %s point (%g, %g): schedulable %t from %s; want %t from %s",
			final.Name, c1, c2, p.Schedulable, p.Source, edfSchedulable(c1, c2), source)
	}
	s.r.check(len(final.Points) == gridPoints && sched == gridSchedulable,
		"grid %s: %d points, %d schedulable; want %d, %d", final.Name, len(final.Points), sched, gridPoints, gridSchedulable)
}

// sweepStats are the per-pass series of one window.
type sweepStats struct {
	grid, regrid, synth             samples       // wall time
	gridUser, regridUser, synthUser samples       // user CPU time
	gridSys, regridSys              samples       // system CPU time
	points                          int           // grid and regrid points and synthesis evaluations answered
	user                            time.Duration // user CPU time of the whole window

	// Traced windows only, cold grid.
	puts, writeBytes, writeCalls float64
	synthPoints                  []int
	reuses, computes             int64
}

// cycle runs the three passes: the grid on the fresh store of c, the
// same grid again under another name from the now-warm store, and the
// committed synthesis.
func (s *sweepRunner) cycle(c cold, t *tree, st *sweepStats) error {
	spec, err := s.in.gridSpec(s.in.name, gridT1, gridT2)
	if err != nil {
		return err
	}
	p0 := c.st.Stats().Puts
	io0, err := readIO()
	if err != nil {
		return err
	}
	sw := startStopwatch()
	g := t.begin("pass.grid", 0)
	final, err := s.grid(c.pool, c.st, spec)
	d, user, sys := sw.stop()
	t.end(g)
	if err != nil {
		return err
	}
	io1, err := readIO()
	if err != nil {
		return err
	}
	st.grid.add(d)
	st.gridUser.add(user)
	st.gridSys.add(sys)
	st.points += len(final.Points)
	s.checkGrid(final, campaign.SourceComputed)
	if t != nil {
		s.graft(t, final.Trace, g)
		n := float64(len(final.Points))
		st.puts += float64(c.st.Stats().Puts-p0) / n
		st.writeBytes += float64(io1.wchar-io0.wchar) / n
		st.writeCalls += float64(io1.syscw-io0.syscw) / n
		m := c.pool.Metrics()
		st.reuses += m.EngineReuses
		st.computes += m.CacheMisses
	}
	c.pool.Close()

	// The regrid: a fresh pool, so every point is a disk-tier hit.
	pool := s.pool(c.st)
	if spec, err = s.in.gridSpec(s.in.name+"-again", gridT1, gridT2); err != nil {
		return err
	}
	sw = startStopwatch()
	g = t.begin("pass.regrid", 0)
	final, err = s.grid(pool, c.st, spec)
	d, user, sys = sw.stop()
	t.end(g)
	pool.Close()
	c.st.Close()
	if err != nil {
		return err
	}
	st.regrid.add(d)
	st.regridUser.add(user)
	st.regridSys.add(sys)
	st.points += len(final.Points)
	s.checkGrid(final, campaign.SourceDisk)
	if t != nil {
		s.graft(t, final.Trace, g)
	}

	for i := 0; i < synthPasses; i++ {
		if err := s.synthesize(t, st); err != nil {
			return err
		}
	}
	return nil
}

// synthesize runs the committed synthesis on a fresh pool with no store:
// its golden counts engine runs, so no verdict may come from a cache, and
// the grid passes already cover the store. The region must match the
// golden byte for byte.
func (s *sweepRunner) synthesize(t *tree, st *sweepStats) error {
	space, err := synth.ParseSpaceBase(bytes.NewReader(s.in.space), func() (*config.System, error) { return s.in.base, nil })
	if err != nil {
		return err
	}
	spool := s.pool(nil)
	defer spool.Close()
	eng := synth.NewEngine(spool, nil, nil)
	sw := startStopwatch()
	g := t.begin("pass.synth", 0)
	started, err := eng.Start(space)
	var sfinal synth.State
	if err == nil {
		sfinal, err = eng.Wait(context.Background(), started.ID)
	}
	d, user, _ := sw.stop()
	t.end(g)
	if err != nil {
		return err
	}
	st.synth.add(d)
	st.synthUser.add(user)
	st.points += sfinal.Counts.Evaluations
	var region bytes.Buffer
	if sfinal.Region != nil {
		enc := json.NewEncoder(&region)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sfinal.Region); err != nil {
			return err
		}
	}
	s.r.check(sfinal.Status == synth.StatusDone && bytes.Equal(region.Bytes(), s.in.golden),
		"synth %s: status %s, region %d bytes differs from the golden (%d bytes)",
		space.Name, sfinal.Status, region.Len(), len(s.in.golden))
	if t != nil {
		s.graft(t, sfinal.Trace, g)
		st.synthPoints = append(st.synthPoints, sfinal.Counts.Evaluations)
	}
	return nil
}

// graft attaches the program's spans of one exploration's trace.
func (s *sweepRunner) graft(t *tree, traceparent string, parent int) {
	if tc, ok := obs.ParseTraceparent(traceparent); ok {
		t.graft(s.tracer.Trace(tc.TraceString()), parent)
	}
}

// window runs cycles until d has passed, at least one; each cycle is one
// traced operation when acc is set. The first cycle uses c.
func (s *sweepRunner) window(c cold, d time.Duration, acc *accounting) (*sweepStats, error) {
	st := &sweepStats{}
	start, user0 := time.Now(), userTime()
	for first := true; first || time.Since(start) < d; first = false {
		if !first {
			var err error
			if c, err = s.fresh(); err != nil {
				return nil, err
			}
		}
		var t *tree
		if acc != nil {
			t = newTree(time.Now())
		}
		if err := s.cycle(c, t, st); err != nil {
			return nil, err
		}
		if t != nil {
			t.finish(time.Now())
			acc.addTree(t)
		}
	}
	st.user = userTime() - user0
	return st, nil
}

func runSweep(o options, r *result) error {
	in, err := prepareSweep(o)
	if err != nil {
		return err
	}
	s := &sweepRunner{o: o, in: in, r: r}
	c, setup, err := setupMedian(setupRuns, s.setup, cold.close)
	if err != nil {
		return err
	}
	untraced, traced := halves(o)
	st, err := s.window(c, untraced, nil)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return err
	}
	// The legs are user CPU time: the stores sit on the checkout's device,
	// and the kernel's file-system time (system CPU time and fsync waits)
	// drifts between runs far more than the work does. Wall and system
	// times are in the report; write bytes and calls are per-layer counts.
	r.e2e["setup_s"] = setup
	r.e2e["peak_rss_mb"] = rss
	r.e2e["throughput_per_s"] = float64(st.points) / st.user.Seconds()
	r.e2e["leg1_ms"] = st.gridUser.median() * 1e3
	r.e2e["leg2_ms"] = st.regridUser.median() * 1e3
	r.e2e["leg3_ms"] = st.synthUser.median() * 1e3

	r.rep.add("setup_s", setup, "s", fmt.Sprintf("median of %d: 192-point warm-up grid without a store, store open, pool start", setupRuns))
	r.rep.add("peak_rss_mb", rss, "MB", "")
	r.rep.add("error_rate", errorRate(r), "ratio", fmt.Sprintf("%d failed of %d", r.failed, r.attempted))
	r.rep.add("grid_points_per_s", gridPoints/st.grid.median(), "1/s", fmt.Sprintf("median of n=%d passes of %d points", len(st.grid), gridPoints))
	r.rep.add("regrid_points_per_s", gridPoints/st.regrid.median(), "1/s", fmt.Sprintf("median of n=%d passes, all disk hits", len(st.regrid)))
	r.rep.timing("synth_region_s", st.synth, "s", 1)
	r.rep.add("points_per_user_s", r.e2e["throughput_per_s"], "1/s", fmt.Sprintf("%d grid, regrid and synthesis points over the window's user CPU time", st.points))
	r.rep.timing("grid_user_s", st.gridUser, "s", 1)
	r.rep.timing("regrid_user_s", st.regridUser, "s", 1)
	r.rep.timing("synth_user_s", st.synthUser, "s", 1)
	r.rep.timing("grid_sys_s", st.gridSys, "s", 1)
	r.rep.timing("regrid_sys_s", st.regridSys, "s", 1)

	if o.trace {
		s.tracer = obs.NewTracer(1<<17, nil)
		c, err := s.setup()
		if err != nil {
			return err
		}
		acc := newAccounting()
		ts, err := s.window(c, traced, acc)
		if err != nil {
			return err
		}
		r.addAccounting(acc)
		L := r.layer
		runs := acc.durs["jobs.run"].sum()
		if runs > 0 {
			L["model.build_share"] = acc.durs[obs.PhaseBuild].sum() / runs
		}
		L["model.build_s"] = acc.durs[obs.PhaseBuild].median()
		L["nsa.interpret_s"] = acc.durs[obs.PhaseInterpret].median()
		L["trace.check_s"] = acc.durs[obs.PhaseCheck].median()
		L["jobs.queue_wait_s"] = acc.durs["jobs.queue"].median()
		L["jobs.run_s"] = acc.durs["jobs.run"].median()
		L["store.put_s"] = acc.durs["store.put"].median()
		L["store.get_s"] = acc.durs["store.get"].median()
		n := float64(len(ts.grid))
		L["store.puts_per_point"] = ts.puts / n
		L["store.write_bytes_per_point"] = ts.writeBytes / n
		L["store.write_calls_per_point"] = ts.writeCalls / n
		if ts.computes > 0 {
			L["jobs.engine_reuse_ratio"] = float64(ts.reuses) / float64(ts.computes)
		}
		L["synth.points"] = meanInts(ts.synthPoints)
		L["tracing_overhead"] = ts.gridUser.median()/st.gridUser.median() - 1
		r.rep.timing("traced grid_user_s", ts.gridUser, "s", 1)
	}
	return nil
}

// ioCounters are this process's cumulative write counters.
type ioCounters struct{ wchar, syscw int64 }

// readIO reads /proc/self/io: bytes passed to write calls and the number
// of write calls, independent of the device underneath.
func readIO() (ioCounters, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return ioCounters{}, err
	}
	defer f.Close()
	var c ioCounters
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return c, fmt.Errorf("/proc/self/io %s: %w", k, err)
		}
		switch k {
		case "wchar":
			c.wchar = n
		case "syscw":
			c.syscw = n
		}
	}
	return c, sc.Err()
}

// stopwatch times a pass in wall time and process CPU time.
type stopwatch struct {
	wall      time.Time
	user, sys time.Duration
}

// startStopwatch collects garbage first, so that a pass does not pay for
// the one before it.
func startStopwatch() stopwatch {
	runtime.GC()
	user, sys := cpuTimes()
	return stopwatch{time.Now(), user, sys}
}

func (s stopwatch) stop() (wall, user, sys time.Duration) {
	u, k := cpuTimes()
	return time.Since(s.wall), u - s.user, k - s.sys
}

func userTime() time.Duration {
	user, _ := cpuTimes()
	return user
}

// cpuTimes are the user and system CPU time this process has used.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}
