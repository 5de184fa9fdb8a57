package explore

import (
	"context"
	"errors"
	"time"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/fault"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/obs"
)

// Point is one exploration point ready for the oracle.
type Point struct {
	Key string // canonical coordinates: span detail, logs, events
	Sys *config.System
	FP  string // Sys.Fingerprint(), the key of every cache tier
}

// Result is a point's settled answer.
type Result struct {
	// Source is where the verdict came from; SourceFailed when the run
	// still failed after its retries (Error holds why).
	Source    string
	Feasible  bool
	ElapsedNS int64
	Error     string
	// Trace is the point span's traceparent when the pool traces;
	// Postmortem names the flight-recorder dump a dump-worthy failure
	// left behind.
	Trace, Postmortem string
	// Retries counts failed attempts retried before the point settled.
	Retries int
	// Phases is the top-level phase breakdown of a computed run, for the
	// straggler report; nil otherwise.
	Phases map[string]int64
}

// Retry bounds re-attempts of a failed run: up to Attempts, the first
// after Backoff, doubling per attempt.
type Retry struct {
	Attempts int
	Backoff  time.Duration
}

// Batch is one fan-out of N points through the pool, Par at a time: each
// window's points are submitted together and settled in index order, so
// a batch records the same points in the same order at any worker count.
// Hit, Admit and Record run with the run's lock held.
type Batch struct {
	N, Par int
	Retry  Retry
	// Prepare materializes point i.
	Prepare func(i int) (Point, error)
	// Hit answers point i from the run's own records when its
	// configuration is already known. fresh reports that the hit appended
	// a record (an alias of a known configuration at new coordinates),
	// which is checkpointed and published.
	Hit func(i int, p Point) (res Result, fresh, ok bool)
	// Admit, when set, gates each pool submission; its error aborts the
	// batch.
	Admit func() error
	// Record folds point i's settled result into the state. A recorded
	// SourceFailed result quarantines the point; an error aborts the
	// batch (the caller's answer to exhausted retries) and is published
	// as the point's quarantine event.
	Record func(i int, p Point, res Result) error
}

// pending is one point of a window in flight.
type pending struct {
	i     int
	p     Point
	tc    obs.TraceContext
	start time.Time
	jb    jobs.Job // the submitted job, or a failed attempt settled without one
}

// Evaluate runs b to completion. On any abort — cancellation included —
// every in-flight job of the window is canceled in the pool so workers
// stop promptly.
func (r *Run[S, E]) Evaluate(ctx context.Context, b Batch) error {
	pool, par := r.eng.pool, max(b.Par, 1)
	for lo := 0; lo < b.N; lo += par {
		var win []pending
		abort := func(err error) error {
			for _, pn := range win {
				if pn.jb.ID != "" {
					pool.Cancel(pn.jb.ID)
				}
			}
			return err
		}
		for i := lo; i < min(lo+par, b.N); i++ {
			if err := ctx.Err(); err != nil {
				return abort(err)
			}
			p, err := b.Prepare(i)
			if err != nil {
				return abort(err)
			}
			if r.hit(&b, i, p) {
				continue
			}
			if b.Admit != nil {
				r.mu.Lock()
				err = b.Admit()
				r.mu.Unlock()
				if err != nil {
					return abort(err)
				}
			}
			// Every point gets a child span of the exploration's root
			// trace (when the pool traces); the job it submits links its
			// submit/queue/run/engine-phase spans under it.
			pn := pending{i: i, p: p, tc: r.pointTrace(), start: time.Now()}
			if pn.jb, err = r.start(ctx, p, pn.tc); err != nil {
				return abort(err)
			}
			win = append(win, pn)
		}
		for _, pn := range win {
			done := pn.jb
			if done.ID != "" {
				var err error
				if done, err = pool.Wait(ctx, done.ID); err != nil {
					return abort(err)
				}
			}
			err := r.settle(ctx, &b, &pn, done)
			if tr := pool.Tracer(); tr != nil && pn.tc.Valid() {
				tr.Record(pn.tc, r.trace.SpanID, r.eng.kind.Name+".point", pn.p.Key,
					pn.start.UnixNano(), time.Since(pn.start).Nanoseconds())
			}
			if err != nil {
				return abort(err)
			}
		}
	}
	return nil
}

// hit answers a point from the run's records, skipping the pool.
func (r *Run[S, E]) hit(b *Batch, i int, p Point) bool {
	r.mu.Lock()
	res, fresh, ok := b.Hit(i, p)
	r.mu.Unlock()
	if !ok {
		return false
	}
	r.eng.count(func(m *Metrics) { m.PointsCheckpoint++ })
	if fresh {
		r.Checkpoint()
		r.publish(Note{Type: "point", Point: p.Key, Source: res.Source, Trace: res.Trace, Verdict: res.Feasible})
	}
	return true
}

// start launches one attempt: the campaign-level fault site first (an
// injected fault is a failed attempt that never takes a pool slot), then
// the submit. The returned job has an ID exactly when it went to the pool.
func (r *Run[S, E]) start(ctx context.Context, p Point, tc obs.TraceContext) (jobs.Job, error) {
	pool := r.eng.pool
	if f := pool.Faults().Hit(fault.SiteCampaignPoint); f != nil {
		return jobs.Job{Status: jobs.StatusFailed, Err: f.Err()}, nil
	}
	// Backpressure: explorations yield to interactive submissions rather
	// than failing.
	for {
		jb, err := pool.SubmitTraced(jobs.ConfigRun{Sys: p.Sys}, pool.DefaultBudget(), tc)
		if !errors.Is(err, jobs.ErrQueueFull) {
			return jb, err
		}
		select {
		case <-ctx.Done():
			return jobs.Job{}, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// attempt runs one attempt to its terminal job. When the wait dies — the
// run was canceled or the engine is shutting down — the cancellation is
// propagated into the pool so the in-flight job stops promptly instead of
// running to completion for nobody.
func (r *Run[S, E]) attempt(ctx context.Context, p Point, tc obs.TraceContext) (jobs.Job, error) {
	jb, err := r.start(ctx, p, tc)
	if err != nil || jb.ID == "" {
		return jb, err
	}
	done, err := r.eng.pool.Wait(ctx, jb.ID)
	if err != nil {
		r.eng.pool.Cancel(jb.ID)
	}
	return done, err
}

// settle resolves one point from its first attempt's terminal job:
// failed attempts are retried per b.Retry, then the result is recorded,
// counted, checkpointed and published. Cancellation surfaces as
// context.Canceled so generators unwind uniformly.
func (r *Run[S, E]) settle(ctx context.Context, b *Batch, pn *pending, done jobs.Job) error {
	pool := r.eng.pool
	retries := 0
	for ; done.Status == jobs.StatusFailed && retries < b.Retry.Attempts; retries++ {
		pool.Resilience().PointRetries.Add(1)
		if lg := r.logger(); lg != nil {
			lg.Warn("point attempt failed; retrying", "point", pn.p.Key, "attempt", retries+1, "error", jobError(done))
		}
		if err := fault.SleepContext(ctx, b.Retry.Backoff<<retries); err != nil {
			return err
		}
		var err error
		if done, err = r.attempt(ctx, pn.p, pn.tc); err != nil {
			return err
		}
	}
	if done.Status == jobs.StatusCanceled {
		return context.Canceled
	}

	res := Result{Postmortem: done.PostmortemKey, Retries: retries}
	if pn.tc.Valid() {
		res.Trace = pn.tc.Traceparent()
	}
	switch {
	case done.Status != jobs.StatusDone:
		res.Source, res.Error = SourceFailed, jobError(done)
	case done.DiskHit:
		res.Source = SourceDisk
	case done.CacheHit:
		res.Source = SourceMemory
	default:
		res.Source = SourceComputed
	}
	if out := done.Outcome; res.Source != SourceFailed {
		res.Feasible = out.Verdict == jobs.VerdictSchedulable
		res.ElapsedNS = int64(out.Elapsed)
		r.durs.Observe(out.Elapsed)
		if res.Source == SourceComputed && out.Telemetry != nil {
			res.Phases = make(map[string]int64)
			for _, ph := range out.Telemetry.Phases {
				if ph.Depth == 0 {
					res.Phases[ph.Name] += ph.DurNS
				}
			}
		}
	}

	r.mu.Lock()
	err := b.Record(pn.i, pn.p, res)
	r.mu.Unlock()
	if err != nil {
		r.publish(Note{Type: "quarantine", Point: pn.p.Key, Trace: res.Trace})
		return err
	}
	r.eng.count(func(m *Metrics) {
		switch res.Source {
		case SourceComputed:
			m.PointsComputed++
		case SourceMemory:
			m.PointsCacheMemory++
		case SourceDisk:
			m.PointsCacheDisk++
		case SourceFailed:
			m.PointsFailed++
		}
	})
	r.Checkpoint()
	n := Note{Type: "point", Point: pn.p.Key, Source: res.Source, Trace: res.Trace, Verdict: res.Feasible}
	if res.Source == SourceFailed {
		n.Type = "quarantine"
		pool.Resilience().PointsQuarantined.Add(1)
		pool.ServiceFlight().RecordWall(obs.FlightQuarantine, 0, 0, pn.p.Key)
		if lg := r.logger(); lg != nil {
			lg.Warn("point quarantined", "point", pn.p.Key, "error", res.Error)
		}
	}
	r.publish(n)
	return nil
}

func jobError(jb jobs.Job) string {
	if jb.Err != nil {
		return jb.Err.Error()
	}
	return "run failed"
}

// pointTrace mints one point's child trace context, zero when the run is
// untraced.
func (r *Run[S, E]) pointTrace() obs.TraceContext {
	if r.trace.Valid() {
		return r.trace.Child()
	}
	return obs.TraceContext{}
}
