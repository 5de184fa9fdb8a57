// Command synth synthesizes feasible parameter regions locally: a space
// spec (JSON) names 1–3 configuration fields as symbolic dimensions over
// a base system, and the synthesis covers their bounding box with
// verdict-labelled sub-boxes, running the NSA interpretation only at the
// lattice points the cover needs. Every evaluated point checkpoints to
// the crash-safe artifact store, so a synthesis killed at any instant —
// crash, OOM, kill -9 — resumes from its last checkpoint and re-derives
// the deterministic refinement without re-running recorded points.
//
// Subcommands:
//
//	synth run    -space space.json -store DIR [-base system.xml] [-workers N] [-report out.json]
//	synth resume -store DIR [-workers N]
//	synth status -store DIR [-id ID]
//	synth export -store DIR -id ID [-o out.json]
//	synth space  -space space.json [-base system.xml]
//
// run starts (or resumes, when the space's fingerprint matches a stored
// checkpoint) the synthesis and waits for it; -base injects a base system
// from an XML configuration file into the space, so spaces stay small;
// -report writes the final region JSON (the `synth export` document,
// schema synth/region/v1) so scripted callers need no second invocation —
// its counts block carries the evaluation/engine-run accounting that
// synth-vs-grid comparisons read.
// resume relaunches every interrupted synthesis in the store and waits
// for all of them. status lists checkpointed syntheses; export writes the
// region JSON (the same document the service serves at
// /v1/synth/{id}/region). space validates a space, merges -base into it,
// and prints the self-contained result — the exact body POST /v1/synth
// accepts, since the HTTP API takes no -base flag.
//
// Exit codes follow internal/diag: 0 success, 1 operational error, 2
// usage, 4 interrupted (progress checkpointed; rerun resume to continue).
package main

import (
	"fmt"
	"log/slog"
	"os"
	"time"

	"stopwatchsim/internal/explore"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/store"
	"stopwatchsim/internal/synth"
)

var cli = &explore.Command[synth.State, *synth.Space]{
	Name:    "synth",
	Input:   "space",
	Noun:    "synthesis",
	Plural:  "syntheses",
	Counted: "synthesis(es)",
	Usage: `usage:
  synth run    -space space.json -store DIR [-base system.xml] [-workers N] [-report out.json]
  synth resume -store DIR [-workers N]
  synth status -store DIR [-id ID]
  synth export -store DIR -id ID [-o out.json]
  synth space  -space space.json [-base system.xml]
`,
	InputHelp:  "synthesis space JSON",
	ReportHelp: "write the final region JSON (synth/region/v1) to this file",
	Parse:      synth.ParseSpaceBase,
	OpenStore: func(dir string) (*store.Store, error) {
		// The synthesis checkpoint kind is pinned (exempt from GC).
		return store.Open(dir, store.Options{PinnedKinds: []string{synth.StoreKind()}})
	},
	NewPool: func(workers int, lg *slog.Logger, st *store.Store) *jobs.Pool {
		return jobs.New(jobs.Options{Workers: workers, Tool: "synth", Logger: lg, Store: st})
	},
	NewEngine: func(pool *jobs.Pool, st *store.Store, lg *slog.Logger) explore.Runs[synth.State, *synth.Space] {
		return synth.NewEngine(pool, st, lg)
	},
	Started: func(st synth.State) {
		fmt.Fprintf(os.Stderr, "synth %s (%s, %d dims): %d points checkpointed\n",
			st.ID[:12], st.Name, len(st.Space.Dims), len(st.Points))
	},
	Show: printState,
	Row: func(st synth.State) string {
		return fmt.Sprintf("%s  %d dims  %-8s  %4d points  %s", st.ID[:12], len(st.Space.Dims), st.Status, len(st.Points), st.Name)
	},
	// The region's counts block carries the evaluation/engine-run
	// accounting synth-vs-grid comparisons read; a region only exists
	// once the synthesis is terminal.
	Export: func(st synth.State) (any, error) {
		if st.Region == nil {
			return nil, fmt.Errorf("synthesis %s is %s and has no region yet", st.ID[:12], st.Status)
		}
		return st.Region, nil
	},
}

func main() { os.Exit(cli.Main(os.Args[1:])) }

func printState(st synth.State) {
	c := st.Counts
	fmt.Fprintf(os.Stderr, "synth %s (%s): %s — %d points (%d computed, %d memory, %d disk, %d checkpoint)\n",
		st.ID[:12], st.Name, st.Status, c.Evaluations, c.EngineRuns,
		c.CacheMemory, c.CacheDisk, c.Checkpoint)
	if r := st.Region; r != nil {
		fmt.Fprintf(os.Stderr, "  region: %d boxes (%d feasible, %d infeasible, %d boundary), coverage %.4f\n",
			len(r.Boxes), c.BoxesFeasible, c.BoxesInfeasible, c.BoxesBoundary, r.Coverage)
	}
	if st.Trace != "" {
		fmt.Fprintf(os.Stderr, "  trace %s\n", st.Trace)
	}
	for _, sl := range st.Stragglers {
		fmt.Fprintf(os.Stderr, "  straggler %v: %s", sl.Values, time.Duration(sl.ElapsedNS))
		if sl.Trace != "" {
			fmt.Fprintf(os.Stderr, "  trace %s", sl.Trace)
		}
		fmt.Fprintln(os.Stderr)
	}
}
