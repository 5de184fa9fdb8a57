// Command campaign runs design-space exploration campaigns locally: a
// campaign spec (JSON) fans configurations through an in-process analysis
// pool, checkpointing every completed point to a crash-safe on-disk
// artifact store. A campaign killed at any instant — crash, OOM, kill -9 —
// resumes from its last checkpoint, skipping every point whose
// configuration fingerprint is already on disk.
//
// Subcommands:
//
//	campaign run    -spec spec.json -store DIR [-base system.xml] [-workers N] [-report out.json]
//	campaign resume -store DIR [-workers N]
//	campaign status -store DIR [-id ID]
//	campaign export -store DIR -id ID [-o out.json]
//	campaign spec   -spec spec.json [-base system.xml]
//
// run starts (or resumes, when the spec's fingerprint matches a stored
// checkpoint) the campaign and waits for it; -base injects a base system
// from an XML configuration file into the spec, so specs stay small;
// -report writes the final summary JSON (the `campaign export` document)
// so scripted callers need no second invocation.
// resume relaunches every interrupted campaign in the store and waits for
// all of them. status lists checkpointed campaigns; export writes the
// summary JSON (schema campaign/summary/v1, the same document the service
// serves at /v1/campaigns/{id}/result). spec validates a spec, merges
// -base into it, and prints the self-contained result — the exact body
// POST /v1/campaigns accepts, since the HTTP API takes no -base flag.
//
// Exit codes follow internal/diag: 0 success, 1 operational error, 2
// usage, 4 interrupted (progress checkpointed; rerun resume to continue).
package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"time"

	"flag"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/diag"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(diag.ExitUsage)
	}
	var code int
	switch os.Args[1] {
	case "run":
		code = cmdRun(os.Args[2:])
	case "resume":
		code = cmdResume(os.Args[2:])
	case "status":
		code = cmdStatus(os.Args[2:])
	case "export":
		code = cmdExport(os.Args[2:])
	case "spec":
		code = cmdSpec(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown subcommand %q\n", os.Args[1])
		usage()
		code = diag.ExitUsage
	}
	os.Exit(code)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  campaign run    -spec spec.json -store DIR [-base system.xml] [-workers N] [-report out.json]
  campaign resume -store DIR [-workers N]
  campaign status -store DIR [-id ID]
  campaign export -store DIR -id ID [-o out.json]
  campaign spec   -spec spec.json [-base system.xml]
`)
}

// openStore opens the artifact store with the campaign checkpoint kind
// pinned (exempt from GC).
func openStore(dir string) (*store.Store, error) {
	return store.Open(dir, store.Options{PinnedKinds: []string{campaign.StoreKind()}})
}

// fail prints the error and returns its diag exit code.
func fail(err error) int {
	rep := diag.FromError("campaign", err, nil)
	fmt.Fprintln(os.Stderr, "campaign:", rep.Message)
	return rep.ExitCode
}

// loadSpec reads the spec file, injecting the base system from basePath
// (XML) when the spec carries none of its own.
func loadSpec(specPath, basePath string) (*campaign.Spec, error) {
	f, err := os.Open(specPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return campaign.ParseSpecBase(f, func() (*config.System, error) {
		if basePath == "" {
			return nil, nil
		}
		bf, err := os.Open(basePath)
		if err != nil {
			return nil, err
		}
		defer bf.Close()
		return config.ReadXML(bf)
	})
}

// newPool builds the analysis pool that run and resume drive. It pins no
// engine backend, so points run on the default compiled runtime.
func newPool(workers int, lg *slog.Logger, st *store.Store) *jobs.Pool {
	return jobs.New(jobs.Options{Workers: workers, Tool: "campaign", Logger: lg, Store: st})
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec JSON (required)")
	storeDir := fs.String("store", "", "artifact store directory (required)")
	basePath := fs.String("base", "", "base system XML to inject into the spec")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent analysis runs")
	report := fs.String("report", "", "write the final summary JSON (campaign/summary/v1) to this file")
	logger := obs.LogFlagsFor(fs)
	fs.Parse(args)
	lg := logger()
	if *specPath == "" || *storeDir == "" {
		fs.Usage()
		return diag.ExitUsage
	}

	spec, err := loadSpec(*specPath, *basePath)
	if err != nil {
		return fail(err)
	}

	st, err := openStore(*storeDir)
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	pool := newPool(*workers, lg, st)
	defer pool.Close()
	eng := campaign.NewEngine(pool, st, lg)

	started, err := eng.Start(spec)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "campaign %s (%s, %s): %d points checkpointed\n",
		started.ID[:12], started.Name, started.Strategy, len(started.Points))
	code := awaitCampaigns(eng, st, []string{started.ID})
	if *report != "" && code != diag.ExitBudget {
		if final, ok := eng.Get(started.ID); ok {
			if err := writeSummary(*report, final); err != nil {
				return fail(err)
			}
		}
	}
	return code
}

// writeSummary writes a state's summary JSON — the exact document
// `campaign export` produces — to path. The point counts it carries
// (computed vs cache tiers) are what synth-vs-grid comparisons read.
func writeSummary(path string, state campaign.State) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(state.Summarize()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdResume(args []string) int {
	fs := flag.NewFlagSet("campaign resume", flag.ExitOnError)
	storeDir := fs.String("store", "", "artifact store directory (required)")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent analysis runs")
	logger := obs.LogFlagsFor(fs)
	fs.Parse(args)
	lg := logger()
	if *storeDir == "" {
		fs.Usage()
		return diag.ExitUsage
	}

	st, err := openStore(*storeDir)
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	pool := newPool(*workers, lg, st)
	defer pool.Close()
	eng := campaign.NewEngine(pool, st, lg)

	resumed := eng.ResumeAll()
	if len(resumed) == 0 {
		fmt.Fprintln(os.Stderr, "campaign: nothing to resume")
		return diag.ExitOK
	}
	fmt.Fprintf(os.Stderr, "campaign: resuming %d campaign(s)\n", len(resumed))
	return awaitCampaigns(eng, st, resumed)
}

// awaitCampaigns waits for the campaigns to finish, printing each final
// state. On SIGINT/SIGTERM it exits without canceling: the checkpoints
// still say "running", so `campaign resume` picks the work back up.
func awaitCampaigns(eng *campaign.Engine, st *store.Store, ids []string) int {
	ctx, stop := diag.SignalContext()
	defer stop()
	code := diag.ExitOK
	for _, id := range ids {
		final, err := eng.Wait(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "campaign: interrupted; progress is checkpointed, run `campaign resume -store %s` to continue\n", st.Dir())
				return diag.ExitBudget
			}
			return fail(err)
		}
		printState(final)
		if final.Status != campaign.StatusDone {
			code = diag.ExitError
		}
	}
	return code
}

func printState(st campaign.State) {
	sum := st.Summarize()
	fmt.Fprintf(os.Stderr, "campaign %s (%s): %s — %d points (%d computed, %d memory, %d disk, %d checkpoint, %d failed)\n",
		st.ID[:12], st.Name, st.Status, sum.Points.Total, sum.Points.Computed,
		sum.Points.CacheMemory, sum.Points.CacheDisk, sum.Points.Checkpoint, sum.Points.Failed)
	if sum.Critical != nil {
		fmt.Fprintf(os.Stderr, "  critical %s = %g\n", st.Spec.Axes[0].Param, *sum.Critical)
	}
	if b := sum.Bracket; b != nil && b.Feasible != nil && b.Infeasible != nil {
		fmt.Fprintf(os.Stderr, "  bracket: %g schedulable, %g unschedulable\n", *b.Feasible, *b.Infeasible)
	}
	for _, row := range sum.Frontier {
		if row.Critical != nil {
			fmt.Fprintf(os.Stderr, "  frontier %s=%g → critical %s = %g (%d evaluations)\n",
				st.Spec.Axes[0].Param, row.Row, st.Spec.Axes[1].Param, *row.Critical, row.Evaluations)
		} else {
			fmt.Fprintf(os.Stderr, "  frontier %s=%g → nothing schedulable (%d evaluations)\n",
				st.Spec.Axes[0].Param, row.Row, row.Evaluations)
		}
	}
	if st.Trace != "" {
		fmt.Fprintf(os.Stderr, "  trace %s\n", st.Trace)
	}
	for _, sl := range st.Stragglers {
		fmt.Fprintf(os.Stderr, "  straggler %s: %s", sl.Point.Key(), time.Duration(sl.ElapsedNS))
		if sl.Trace != "" {
			fmt.Fprintf(os.Stderr, "  trace %s", sl.Trace)
		}
		fmt.Fprintln(os.Stderr)
	}
}

// cmdSpec validates a spec, merges -base into it, and prints the
// self-contained spec JSON — suitable as the body of POST /v1/campaigns.
func cmdSpec(args []string) int {
	fs := flag.NewFlagSet("campaign spec", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec JSON (required)")
	basePath := fs.String("base", "", "base system XML to inject into the spec")
	fs.Parse(args)
	if *specPath == "" {
		fs.Usage()
		return diag.ExitUsage
	}
	spec, err := loadSpec(*specPath, *basePath)
	if err != nil {
		return fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "campaign: spec fingerprint %s\n", spec.Fingerprint())
	return diag.ExitOK
}

func cmdStatus(args []string) int {
	fs := flag.NewFlagSet("campaign status", flag.ExitOnError)
	storeDir := fs.String("store", "", "artifact store directory (required)")
	id := fs.String("id", "", "show one campaign in full")
	fs.Parse(args)
	if *storeDir == "" {
		fs.Usage()
		return diag.ExitUsage
	}
	st, err := openStore(*storeDir)
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	// A pool is required by the engine but no jobs run under status.
	pool := jobs.New(jobs.Options{Workers: 1, Tool: "campaign"})
	defer pool.Close()
	eng := campaign.NewEngine(pool, st, nil)
	eng.RegisterAll()

	if *id != "" {
		state, ok := eng.Get(*id)
		if !ok {
			return fail(fmt.Errorf("unknown campaign %q", *id))
		}
		printState(state)
		return diag.ExitOK
	}
	all := eng.List()
	if len(all) == 0 {
		fmt.Fprintln(os.Stderr, "campaign: store holds no campaigns")
		return diag.ExitOK
	}
	for _, state := range all {
		fmt.Fprintf(os.Stdout, "%s  %-8s  %-8s  %4d points  %s\n",
			state.ID[:12], state.Strategy, state.Status, len(state.Points), state.Name)
	}
	return diag.ExitOK
}

func cmdExport(args []string) int {
	fs := flag.NewFlagSet("campaign export", flag.ExitOnError)
	storeDir := fs.String("store", "", "artifact store directory (required)")
	id := fs.String("id", "", "campaign ID (required; prefix accepted)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *storeDir == "" || *id == "" {
		fs.Usage()
		return diag.ExitUsage
	}
	st, err := openStore(*storeDir)
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	pool := jobs.New(jobs.Options{Workers: 1, Tool: "campaign"})
	defer pool.Close()
	eng := campaign.NewEngine(pool, st, nil)
	eng.RegisterAll()

	state, ok := eng.Get(*id)
	if !ok {
		// Accept an unambiguous ID prefix, as git does.
		var matches []campaign.State
		for _, s := range eng.List() {
			if len(*id) >= 4 && len(*id) <= len(s.ID) && s.ID[:len(*id)] == *id {
				matches = append(matches, s)
			}
		}
		if len(matches) != 1 {
			return fail(fmt.Errorf("unknown campaign %q", *id))
		}
		state = matches[0]
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(state.Summarize()); err != nil {
		return fail(err)
	}
	return diag.ExitOK
}
