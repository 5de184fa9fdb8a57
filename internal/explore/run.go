package explore

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"

	"stopwatchsim/internal/fault"
	"stopwatchsim/internal/obs"
)

// Run is one registered exploration: its state document, the explorer
// generating its points, and its ops view. The state is only touched
// under the run's lock — through Update, or by the hooks the kernel calls
// with the lock held.
type Run[S, E any] struct {
	eng *Engine[S, E]
	x   Explorer

	mu    sync.Mutex
	state *S

	// Ops view: the live event hub, the root trace context (zero when the
	// pool does not trace) and the settled-point duration histogram
	// feeding the ETA. trace is set before launch and read-only after.
	hub   obs.EventHub
	trace obs.TraceContext
	durs  *obs.Histogram

	cancel context.CancelFunc
	done   chan struct{}
}

// Update runs f on the state with the run's lock held.
func (r *Run[S, E]) Update(f func(st *S)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(r.state)
}

// snapshot returns a copy of the state safe to hand out.
func (r *Run[S, E]) snapshot() S {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.kind.Clone(r.state)
}

// Checkpoint persists the current state (after stamping UpdatedAt) so a
// crash at any later instant resumes from here. Checkpoints ride through
// transient store faults on the same retry policy as the pool's disk
// tier; an exhausted failure is only logged — the exploration completes
// in memory and the previous checkpoint stays authoritative for resume.
func (r *Run[S, E]) Checkpoint() {
	k := &r.eng.kind
	r.mu.Lock()
	h := k.Header(r.state)
	*h.UpdatedAt = time.Now().UTC().Format(time.RFC3339Nano)
	id, snap := *h.ID, k.Clone(r.state)
	r.mu.Unlock()
	st := r.eng.st
	if st == nil {
		return
	}
	retries, err := fault.DefaultStoreRetry.Do(context.Background(), nil, func() error {
		return st.Put(k.Name, id, &snap)
	})
	r.eng.pool.Resilience().StoreRetries.Add(int64(retries))
	if err != nil && r.eng.lg != nil {
		r.eng.lg.Warn(k.Name+" checkpoint failed", k.Name, id, "error", err.Error())
	}
}

// launch mints (or, on resume, re-adopts) the root trace context when the
// pool traces, and starts the run's goroutine. Callers hold the registry
// lock.
func (r *Run[S, E]) launch() {
	if r.eng.pool.Tracer() != nil {
		h := r.eng.kind.Header(r.state)
		if tc, ok := obs.ParseTraceparent(*h.Trace); ok {
			r.trace = tc
		} else {
			r.trace = obs.NewTrace()
			*h.Trace = r.trace.Traceparent()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go r.run(ctx)
}

// run drives the explorer to a terminal state.
func (r *Run[S, E]) run(ctx context.Context) {
	defer close(r.done)
	k := &r.eng.kind
	t0 := time.Now()
	r.mu.Lock()
	h := k.Header(r.state)
	if *h.StartedAt == "" {
		*h.StartedAt = t0.UTC().Format(time.RFC3339Nano)
	}
	r.mu.Unlock()
	r.Checkpoint()
	lg := r.logger()
	if lg != nil {
		lg.Info(k.Noun+" running", "points_done", r.pointsDone())
	}

	err := r.x.Explore(ctx)

	status := outcome(err)
	r.mu.Lock()
	*h.Status = status
	if status == StatusFailed {
		*h.Error = err.Error()
	}
	r.x.Finish(status)
	detail := k.Detail(r.state)
	r.mu.Unlock()
	r.Checkpoint()
	if tr := r.eng.pool.Tracer(); tr != nil && r.trace.Valid() {
		// The exploration's root span: parentless, covering this process's
		// share of the run (a resumed run records one per leg).
		tr.Record(r.trace, [8]byte{}, k.Name, detail, t0.UnixNano(), time.Since(t0).Nanoseconds())
	}
	r.publish(Note{Type: "status", Status: status})
	r.eng.count(func(m *Metrics) {
		switch status {
		case StatusDone:
			m.Done++
		case StatusFailed:
			m.Failed++
		case StatusCanceled:
			m.Canceled++
		}
	})
	if lg != nil {
		if err != nil {
			lg.Warn(k.Noun+" finished", "status", status, "error", err.Error())
		} else {
			lg.Info(k.Noun+" finished", "status", status, "points", r.pointsDone())
		}
	}
}

func (r *Run[S, E]) pointsDone() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	done, _, _ := r.x.Progress()
	return done
}

func (r *Run[S, E]) logger() *slog.Logger {
	if r.eng.lg == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.eng.kind.Header(r.state)
	return r.eng.lg.With(slog.String(r.eng.kind.Name, *h.ID), slog.String("name", *h.Name))
}

// The ops view. All of it is best-effort telemetry: publishing never
// blocks point evaluation, and a slow subscriber loses events rather than
// stalling the exploration.

// Note is one live event in kind-neutral form; Kind.Event renders it.
type Note struct {
	// Type is "point" (a point settled), "quarantine" (a point failed
	// after its retries) or "status" (the run's state, terminal when
	// published live).
	Type, Status string
	// Point fields, set on point/quarantine notes.
	Point, Source, Trace string
	Verdict              bool
	Progress
}

// Progress is the coverage part of every live event: points recorded so
// far, the known total (0 when open-ended), coverage percent and the
// remaining-work estimate from the points-duration histogram.
type Progress struct {
	Done        int     `json:"done"`
	Total       int     `json:"total,omitempty"`
	CoveragePct float64 `json:"coverage_pct,omitempty"`
	EtaMS       int64   `json:"eta_ms,omitempty"`
}

// eventLocked renders n with the run's progress. Callers hold r.mu.
func (r *Run[S, E]) eventLocked(n Note) E {
	done, total, par := r.x.Progress()
	n.Done = done
	if total > 0 {
		n.Total = total
		n.CoveragePct = 100 * float64(done) / float64(total)
		if s := r.durs.Snapshot(); done < total && s.Count > 0 {
			mean := float64(s.Sum) / float64(s.Count)
			n.EtaMS = int64(mean * float64(total-done) / float64(par) / float64(time.Millisecond))
		}
	}
	return r.eng.kind.Event(*r.eng.kind.Header(r.state).ID, n)
}

// publish pushes n onto the live stream.
func (r *Run[S, E]) publish(n Note) {
	if r.hub.Subscribers() == 0 {
		return
	}
	r.mu.Lock()
	ev := r.eventLocked(n)
	r.mu.Unlock()
	r.hub.Publish(ev)
}

// maxStragglers bounds the straggler report.
const maxStragglers = 5

// Rank folds s into a worst-first straggler report of at most
// maxStragglers entries, replacing any entry for the same point (a healed
// re-evaluation must never appear twice). elapsed orders entries, same
// matches s's point.
func Rank[T any](list []T, s T, elapsed func(*T) int64, same func(*T) bool) []T {
	for j := range list {
		if same(&list[j]) {
			list = append(list[:j], list[j+1:]...)
			break
		}
	}
	ns := elapsed(&s)
	i := sort.Search(len(list), func(i int) bool { return elapsed(&list[i]) < ns })
	if i >= maxStragglers {
		return list
	}
	list = append(list, s)
	copy(list[i+1:], list[i:])
	list[i] = s
	if len(list) > maxStragglers {
		list = list[:maxStragglers]
	}
	return list
}
