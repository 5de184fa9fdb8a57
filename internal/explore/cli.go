package explore

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/diag"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/store"
)

// Runs is what the command line drives: one kind's engine, starting
// explorations from specs of type P.
type Runs[S, P any] interface {
	Start(spec P) (S, error)
	Get(id string) (S, bool)
	List() []S
	ResumeAll() []string
	RegisterAll()
	Wait(ctx context.Context, id string) (S, error)
	Header(st *S) Header
}

// Command is the command-line front end cmd/campaign and cmd/synth share.
// Its subcommands run explorations in process against a crash-safe
// store:
//
//	run    -<input> FILE -store DIR [-base system.xml] [-workers N] [-report out.json]
//	resume -store DIR [-workers N]
//	status -store DIR [-id ID]
//	export -store DIR -id ID [-o out.json]
//	<input> -<input> FILE [-base system.xml]
//
// run starts (or resumes, when the spec's fingerprint matches a stored
// checkpoint) an exploration and waits for it; -base injects a base
// system from an XML configuration file. resume relaunches every
// interrupted exploration in the store; status lists them; export writes
// one's result document; the input subcommand prints the self-contained
// spec, the exact body the HTTP API accepts. A SIGINT leaves the
// checkpoints running, so resume picks the work back up.
type Command[S any, P interface{ Fingerprint() string }] struct {
	// Name is the command and store kind ("campaign"); Input names the
	// spec subcommand and flag ("spec"); Noun, Plural and Counted word
	// explorations in messages ("campaign", "campaigns", "campaign(s)").
	Name, Input, Noun, Plural, Counted string
	// Usage is the usage text; InputHelp and ReportHelp are the -<input>
	// and -report flag help.
	Usage, InputHelp, ReportHelp string

	// Parse decodes a spec, injecting base when it carries none.
	Parse func(r io.Reader, base func() (*config.System, error)) (P, error)
	// OpenStore opens the store with the kind's checkpoints pinned;
	// NewPool builds the analysis pool; NewEngine the kind's engine.
	OpenStore func(dir string) (*store.Store, error)
	NewPool   func(workers int, lg *slog.Logger, st *store.Store) *jobs.Pool
	NewEngine func(*jobs.Pool, *store.Store, *slog.Logger) Runs[S, P]

	// Started prints run's opening line and Show a final state; Row is
	// one line of the status listing; Export builds the result document.
	Started, Show func(S)
	Row           func(S) string
	Export        func(S) (any, error)
}

// Main runs the subcommand named by args[0] and returns the exit code,
// following internal/diag: 0 success, 1 operational error, 2 usage, 4
// interrupted (progress checkpointed; rerun resume to continue).
func (c *Command[S, P]) Main(args []string) int {
	if len(args) < 1 {
		fmt.Fprint(os.Stderr, c.Usage)
		return diag.ExitUsage
	}
	switch args[0] {
	case "run":
		return c.run(args[1:])
	case "resume":
		return c.resume(args[1:])
	case "status":
		return c.status(args[1:])
	case "export":
		return c.export(args[1:])
	case c.Input:
		return c.spec(args[1:])
	case "-h", "-help", "--help", "help":
		fmt.Fprint(os.Stderr, c.Usage)
		return diag.ExitOK
	}
	fmt.Fprintf(os.Stderr, "%s: unknown subcommand %q\n", c.Name, args[0])
	fmt.Fprint(os.Stderr, c.Usage)
	return diag.ExitUsage
}

// fail prints the error and returns its diag exit code.
func (c *Command[S, P]) fail(err error) int {
	rep := diag.FromError(c.Name, err, nil)
	fmt.Fprintln(os.Stderr, c.Name+":", rep.Message)
	return rep.ExitCode
}

// Load reads the spec file, injecting the base system from basePath
// (XML) when the spec carries none of its own.
func (c *Command[S, P]) Load(specPath, basePath string) (P, error) {
	f, err := os.Open(specPath)
	if err != nil {
		var zero P
		return zero, err
	}
	defer f.Close()
	return c.Parse(f, func() (*config.System, error) {
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

func (c *Command[S, P]) flags(sub string) *flag.FlagSet {
	return flag.NewFlagSet(c.Name+" "+sub, flag.ExitOnError)
}

// open opens the store and, over it, a pool and engine: a pool of
// workers for run and resume, and for status and export (workers 0) an
// idle one — they run no jobs, but the engine needs a pool — with every
// checkpoint registered inert. Call the returned closer when done.
func (c *Command[S, P]) open(dir string, workers int, lg *slog.Logger) (Runs[S, P], *store.Store, func(), error) {
	st, err := c.OpenStore(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if workers == 0 {
		pool := c.NewPool(1, nil, nil)
		eng := c.NewEngine(pool, st, nil)
		eng.RegisterAll()
		return eng, st, func() { pool.Close(); st.Close() }, nil
	}
	pool := c.NewPool(workers, lg, st)
	return c.NewEngine(pool, st, lg), st, func() { pool.Close(); st.Close() }, nil
}

func (c *Command[S, P]) run(args []string) int {
	fs := c.flags("run")
	specPath := fs.String(c.Input, "", c.InputHelp+" (required)")
	storeDir := fs.String("store", "", "artifact store directory (required)")
	basePath := fs.String("base", "", "base system XML to inject into the "+c.Input)
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent analysis runs")
	report := fs.String("report", "", c.ReportHelp)
	logger := obs.LogFlagsFor(fs)
	fs.Parse(args)
	lg := logger()
	if *specPath == "" || *storeDir == "" {
		fs.Usage()
		return diag.ExitUsage
	}
	spec, err := c.Load(*specPath, *basePath)
	if err != nil {
		return c.fail(err)
	}
	eng, st, closer, err := c.open(*storeDir, *workers, lg)
	if err != nil {
		return c.fail(err)
	}
	defer closer()
	started, err := eng.Start(spec)
	if err != nil {
		return c.fail(err)
	}
	c.Started(started)
	id := *eng.Header(&started).ID
	code := c.await(eng, st.Dir(), []string{id})
	if *report != "" && code != diag.ExitBudget {
		if final, ok := eng.Get(id); ok {
			if doc, err := c.Export(final); err == nil {
				if err := writeJSON(*report, doc); err != nil {
					return c.fail(err)
				}
			}
		}
	}
	return code
}

func (c *Command[S, P]) resume(args []string) int {
	fs := c.flags("resume")
	storeDir := fs.String("store", "", "artifact store directory (required)")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent analysis runs")
	logger := obs.LogFlagsFor(fs)
	fs.Parse(args)
	lg := logger()
	if *storeDir == "" {
		fs.Usage()
		return diag.ExitUsage
	}
	eng, st, closer, err := c.open(*storeDir, *workers, lg)
	if err != nil {
		return c.fail(err)
	}
	defer closer()
	resumed := eng.ResumeAll()
	if len(resumed) == 0 {
		fmt.Fprintln(os.Stderr, c.Name+": nothing to resume")
		return diag.ExitOK
	}
	fmt.Fprintf(os.Stderr, "%s: resuming %d %s\n", c.Name, len(resumed), c.Counted)
	return c.await(eng, st.Dir(), resumed)
}

// await waits for each run in ids to finish, showing each final state,
// and returns the exit code: diag.ExitOK when all finished done,
// diag.ExitError otherwise. On SIGINT/SIGTERM it returns diag.ExitBudget
// without canceling anything: the checkpoints under dir still say
// "running", so resume picks the work back up.
func (c *Command[S, P]) await(eng Runs[S, P], dir string, ids []string) int {
	ctx, stop := diag.SignalContext()
	defer stop()
	code := diag.ExitOK
	for _, id := range ids {
		final, err := eng.Wait(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "%s: interrupted; progress is checkpointed, run `%s resume -store %s` to continue\n", c.Name, c.Name, dir)
				return diag.ExitBudget
			}
			return c.fail(err)
		}
		c.Show(final)
		if *eng.Header(&final).Status != StatusDone {
			code = diag.ExitError
		}
	}
	return code
}

func (c *Command[S, P]) status(args []string) int {
	fs := c.flags("status")
	storeDir := fs.String("store", "", "artifact store directory (required)")
	id := fs.String("id", "", "show one "+c.Noun+" in full")
	fs.Parse(args)
	if *storeDir == "" {
		fs.Usage()
		return diag.ExitUsage
	}
	eng, _, closer, err := c.open(*storeDir, 0, nil)
	if err != nil {
		return c.fail(err)
	}
	defer closer()
	if *id != "" {
		state, ok := eng.Get(*id)
		if !ok {
			return c.fail(fmt.Errorf("unknown %s %q", c.Noun, *id))
		}
		c.Show(state)
		return diag.ExitOK
	}
	all := eng.List()
	if len(all) == 0 {
		fmt.Fprintf(os.Stderr, "%s: store holds no %s\n", c.Name, c.Plural)
		return diag.ExitOK
	}
	for _, state := range all {
		fmt.Fprintln(os.Stdout, c.Row(state))
	}
	return diag.ExitOK
}

func (c *Command[S, P]) export(args []string) int {
	fs := c.flags("export")
	storeDir := fs.String("store", "", "artifact store directory (required)")
	id := fs.String("id", "", c.Noun+" ID (required; prefix accepted)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *storeDir == "" || *id == "" {
		fs.Usage()
		return diag.ExitUsage
	}
	eng, _, closer, err := c.open(*storeDir, 0, nil)
	if err != nil {
		return c.fail(err)
	}
	defer closer()
	state, ok := eng.Get(*id)
	if !ok {
		// Accept an unambiguous ID prefix, as git does.
		var matches []S
		for _, s := range eng.List() {
			if sid := *eng.Header(&s).ID; len(*id) >= 4 && len(*id) <= len(sid) && sid[:len(*id)] == *id {
				matches = append(matches, s)
			}
		}
		if len(matches) != 1 {
			return c.fail(fmt.Errorf("unknown %s %q", c.Noun, *id))
		}
		state = matches[0]
	}
	doc, err := c.Export(state)
	if err != nil {
		return c.fail(err)
	}
	if *out == "" {
		err = encodeJSON(os.Stdout, doc)
	} else {
		err = writeJSON(*out, doc)
	}
	if err != nil {
		return c.fail(err)
	}
	return diag.ExitOK
}

// spec validates a spec, merges -base into it, and prints the
// self-contained spec JSON — the body the HTTP API accepts, since it
// takes no -base flag.
func (c *Command[S, P]) spec(args []string) int {
	fs := c.flags(c.Input)
	specPath := fs.String(c.Input, "", c.InputHelp+" (required)")
	basePath := fs.String("base", "", "base system XML to inject into the "+c.Input)
	fs.Parse(args)
	if *specPath == "" {
		fs.Usage()
		return diag.ExitUsage
	}
	spec, err := c.Load(*specPath, *basePath)
	if err != nil {
		return c.fail(err)
	}
	if err := encodeJSON(os.Stdout, spec); err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %s fingerprint %s\n", c.Name, c.Input, spec.Fingerprint())
	return diag.ExitOK
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
