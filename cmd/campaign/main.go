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
	"fmt"
	"log/slog"
	"os"
	"time"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/explore"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/store"
)

var cli = &explore.Command[campaign.State, *campaign.Spec]{
	Name:    "campaign",
	Input:   "spec",
	Noun:    "campaign",
	Plural:  "campaigns",
	Counted: "campaign(s)",
	Usage: `usage:
  campaign run    -spec spec.json -store DIR [-base system.xml] [-workers N] [-report out.json]
  campaign resume -store DIR [-workers N]
  campaign status -store DIR [-id ID]
  campaign export -store DIR -id ID [-o out.json]
  campaign spec   -spec spec.json [-base system.xml]
`,
	InputHelp:  "campaign spec JSON",
	ReportHelp: "write the final summary JSON (campaign/summary/v1) to this file",
	Parse:      campaign.ParseSpecBase,
	OpenStore:  openStore,
	NewPool:    newPool,
	NewEngine: func(pool *jobs.Pool, st *store.Store, lg *slog.Logger) explore.Runs[campaign.State, *campaign.Spec] {
		return campaign.NewEngine(pool, st, lg)
	},
	Started: func(st campaign.State) {
		fmt.Fprintf(os.Stderr, "campaign %s (%s, %s): %d points checkpointed\n",
			st.ID[:12], st.Name, st.Strategy, len(st.Points))
	},
	Show: printState,
	Row: func(st campaign.State) string {
		return fmt.Sprintf("%s  %-8s  %-8s  %4d points  %s", st.ID[:12], st.Strategy, st.Status, len(st.Points), st.Name)
	},
	// The summary's point counts (computed vs cache tiers) are what
	// synth-vs-grid comparisons read.
	Export: func(st campaign.State) (any, error) { return st.Summarize(), nil },
}

func main() { os.Exit(cli.Main(os.Args[1:])) }

// openStore opens the artifact store with the campaign checkpoint kind
// pinned (exempt from GC).
func openStore(dir string) (*store.Store, error) {
	return store.Open(dir, store.Options{PinnedKinds: []string{campaign.StoreKind()}})
}

// newPool builds the analysis pool that run and resume drive. It pins no
// engine backend, so points run on the default compiled runtime.
func newPool(workers int, lg *slog.Logger, st *store.Store) *jobs.Pool {
	return jobs.New(jobs.Options{Workers: workers, Tool: "campaign", Logger: lg, Store: st})
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
