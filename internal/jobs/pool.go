package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"stopwatchsim/internal/diag"
	"stopwatchsim/internal/fault"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/store"
)

// Pool errors.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity — the service's backpressure signal (HTTP 429 upstream).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: pool closed")
	// ErrUnknownJob is returned for job IDs the registry does not hold.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrStuck marks a job the watchdog killed for exceeding the stuck
	// deadline and could not (or may not) requeue.
	ErrStuck = errors.New("jobs: job stuck")
)

// Options configure a Pool. The zero value is usable: GOMAXPROCS workers,
// a queue of 64, a 256-entry cache, unlimited per-job budget.
type Options struct {
	// Workers is the number of concurrent analysis runs; <= 0 means
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; <= 0 means 64.
	// A full queue rejects submissions with ErrQueueFull rather than
	// letting latency grow without bound.
	QueueDepth int
	// CacheSize bounds the result cache in entries; 0 means 256, negative
	// disables caching.
	CacheSize int
	// Budget is the default per-job resource budget; jobs submitted with
	// SubmitBudget override it. The pool adds its own cancellation on top.
	Budget nsa.Budget
	// Backend is the engine backend runs use unless the submitted runner
	// pins one itself. The zero value is the zero-allocation compiled
	// runtime; BackendNaive runs the reference interpreter instead. The
	// backend never enters cache keys: by the determinism theorem both
	// backends produce interchangeable outcomes (the compiled-vs-naive
	// differential test enforces it).
	Backend nsa.Backend
	// Tool names the diag reports of failed jobs; "" means "jobs".
	Tool string
	// Logger receives structured job-lifecycle events (queued, started,
	// finished, cache hits); each record carries the job ID and the
	// configuration fingerprint. Nil disables logging.
	Logger *slog.Logger
	// Store, when non-nil, is the persistent second cache tier: completed
	// outcomes are written to it under their content address and looked up
	// on every in-memory miss (memory → disk → compute), so results
	// survive process restarts.
	Store *store.Store
	// Faults is an optional fault injector consulted at the worker sites
	// (run errors, panics, injected latency). Nil — the normal
	// configuration — is a zero-cost no-op. Store-site faults are armed on
	// the store itself via store.Options.Faults.
	Faults *fault.Injector
	// Resilience collects the pool's self-healing counters (retries,
	// breaker trips, watchdog requeues, recovered panics). Nil allocates a
	// private collector; pass one to share it with the campaign engine and
	// the metrics endpoint.
	Resilience *obs.Resilience
	// StuckAfter arms the watchdog: a job running longer than this is
	// presumed wedged, its context canceled and the job requeued (up to
	// MaxRequeues times). <= 0 disables the watchdog.
	StuckAfter time.Duration
	// MaxRequeues bounds watchdog requeues per job; 0 means 1, negative
	// means kill without requeueing.
	MaxRequeues int
	// BreakerThreshold and BreakerCooldown tune the disk-tier circuit
	// breaker: consecutive store failures before the tier degrades to
	// memory-only, and how long before a recovery probe. Zero values take
	// the fault.NewBreaker defaults (5 failures, 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Tracer, when non-nil, collects cross-layer spans: submissions carry
	// a TraceContext (SubmitTraced) and the pool records submit, cache-
	// tier, queue, run, store and engine-phase spans under it. Nil — the
	// default — disables tracing at one branch per site.
	Tracer *obs.Tracer
	// FlightDepth arms flight recorders: each worker keeps a ring of the
	// last FlightDepth engine events (reset per attempt) and the pool one
	// shared ring of service events (fault injections, breaker
	// transitions, watchdog fires). A run ending in deadlock, watchdog
	// kill, panic or injected fault dumps both rings into a postmortem
	// document on the job (and the store, when one is configured).
	// 0 disables.
	FlightDepth int
}

// Pool is a bounded worker pool with a job registry and a shared result
// cache. Create one with New; it is safe for concurrent use.
type Pool struct {
	opts    Options
	cache   *Cache
	store   *store.Store
	metrics *Metrics
	queue   chan *Job
	faults  *fault.Injector
	res     *obs.Resilience
	breaker *fault.Breaker // guards the disk tier; nil when no store

	tracer    *obs.Tracer         // nil disables tracing
	svcFlight *obs.FlightRecorder // shared service-event ring; nil disables

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*Job
	// inflight maps a key to the queued or running job that computes it:
	// the single point where identical submissions coalesce.
	inflight map[string]*Job
	seq      int64
	closed   bool
}

// New starts a pool with opts.Workers workers.
func New(opts Options) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = 256
	}
	if opts.Tool == "" {
		opts.Tool = "jobs"
	}
	if opts.Resilience == nil {
		opts.Resilience = &obs.Resilience{}
	}
	ctx, stop := context.WithCancel(context.Background())
	p := &Pool{
		opts:     opts,
		cache:    NewCache(opts.CacheSize), // nil when CacheSize < 0
		store:    opts.Store,
		metrics:  newMetrics(),
		queue:    make(chan *Job, opts.QueueDepth),
		faults:   opts.Faults,
		res:      opts.Resilience,
		ctx:      ctx,
		stop:     stop,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	if p.store != nil {
		p.breaker = fault.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	p.tracer = opts.Tracer
	if opts.FlightDepth > 0 {
		p.svcFlight = obs.NewFlightRecorder(opts.FlightDepth)
		// One hook observes every injected fault — worker sites here and
		// store sites inside the shared injector alike.
		p.faults.OnInject(func(site fault.Site, seq int64) {
			p.svcFlight.RecordWall(obs.FlightFault, seq, 0, string(site))
		})
	}
	for i := 0; i < opts.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	if opts.StuckAfter > 0 {
		p.wg.Add(1)
		go p.watchdog()
	}
	return p
}

// Resilience returns the pool's self-healing counters (never nil).
func (p *Pool) Resilience() *obs.Resilience { return p.res }

// Faults returns the pool's worker-site fault injector, nil when disabled.
func (p *Pool) Faults() *fault.Injector { return p.faults }

// Backend returns the engine backend the pool stamps onto runs that do
// not pin one themselves.
func (p *Pool) Backend() nsa.Backend { return p.opts.Backend }

// Degraded reports whether the disk tier is currently tripped into
// memory-only mode — the /readyz signal.
func (p *Pool) Degraded() bool { return p.breaker.Tripped() }

// Tracer returns the pool's span collector, nil when tracing is disabled.
func (p *Pool) Tracer() *obs.Tracer { return p.tracer }

// ServiceFlight returns the shared service-event flight recorder, nil
// when flight recording is disabled.
func (p *Pool) ServiceFlight() *obs.FlightRecorder { return p.svcFlight }

// DefaultBudget returns the pool's default per-job resource budget, so
// traced submitters (campaign/synth points) can pass it to SubmitTraced.
func (p *Pool) DefaultBudget() nsa.Budget { return p.opts.Budget }

// Submit enqueues r under the pool's default budget.
func (p *Pool) Submit(r Runner) (Job, error) {
	return p.submit(r, p.opts.Budget, obs.TraceContext{})
}

// SubmitBudget enqueues r with a per-job resource budget.
func (p *Pool) SubmitBudget(r Runner, b nsa.Budget) (Job, error) {
	return p.submit(r, b, obs.TraceContext{})
}

// SubmitTraced enqueues r with a per-job budget under an existing trace
// context — the ingress span of an HTTP submission or the per-point span
// of an exploration — so the job's submit, queue, run, store and
// engine-phase spans link into the caller's trace.
func (p *Pool) SubmitTraced(r Runner, b nsa.Budget, tc obs.TraceContext) (Job, error) {
	return p.submit(r, b, tc)
}

// submit enqueues r with budget b. When the runner's key is cached — in
// memory, or on disk when the pool has a persistent store — the job
// completes immediately with the shared outcome and CacheHit set
// (DiskHit additionally for the persistent tier). When an identical job
// is already queued or running, the new one attaches to it and finishes
// with its outcome, CacheHit set. Otherwise it is queued, or rejected
// with ErrQueueFull when the queue is at capacity. The returned Job is a
// snapshot; poll with Get or block with Wait.
func (p *Pool) submit(r Runner, b nsa.Budget, tc obs.TraceContext) (Job, error) {
	// Stamp the pool's engine backend onto runners that didn't pin one.
	// Keys are computed after and without it: backends are outcome-
	// interchangeable, so a cached result answers any backend's run.
	if p.opts.Backend != nsa.BackendCompiled {
		switch rr := r.(type) {
		case ConfigRun:
			if rr.Backend == nsa.BackendCompiled {
				rr.Backend = p.opts.Backend
				r = rr
			}
		case XTARun:
			if rr.Backend == nsa.BackendCompiled {
				rr.Backend = p.opts.Backend
				r = rr
			}
		}
	}
	key := r.Key()
	now := time.Now()
	// The job's anchor span: a child of the caller's (ingress or
	// exploration-point) span, parent of everything the pool records.
	traced := p.tracer != nil && tc.Valid()
	var jtc obs.TraceContext
	if traced {
		jtc = tc.Child()
	}
	// Tiered lookup before the registry lock: the memory cache is its own
	// lock, and the disk read must not stall every other submission.
	out, memHit := p.cache.Get(key)
	var diskHit bool
	if !memHit {
		gs := time.Now()
		if out = p.storeGet(key); out != nil {
			diskHit = true
			p.cache.Put(key, out) // promote to the memory tier
		}
		if traced && p.store != nil {
			detail := "miss"
			if diskHit {
				detail = "hit"
			}
			p.tracer.Record(jtc.Child(), jtc.SpanID, "store.get", detail,
				gs.UnixNano(), time.Since(gs).Nanoseconds())
		}
	}
	tier := "tier=miss"
	switch {
	case memHit:
		tier = "tier=memory"
	case diskHit:
		tier = "tier=disk"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return Job{}, ErrClosed
	}
	var lead *Job
	if out == nil && key != "" {
		// Under the registry lock an identical run is either still in
		// flight or already in the memory cache (finishLocked fills the
		// cache before it releases the key), so no duplicate computes.
		if lead = p.inflight[key]; lead == nil {
			if out, memHit = p.cache.Get(key); memHit {
				tier = "tier=memory"
			}
		}
	}
	p.seq++
	jb := &Job{
		ID:        fmt.Sprintf("j%06d", p.seq),
		Key:       key,
		Status:    StatusQueued,
		Submitted: now,
		Trace:     jtc,
		runner:    r,
		budget:    b,
		done:      make(chan struct{}),
	}
	if out != nil {
		jb.Status = StatusDone
		jb.CacheHit = true
		jb.DiskHit = diskHit
		jb.Outcome = out
		jb.Started, jb.Finished = now, now
		close(jb.done)
		p.jobs[jb.ID] = jb
		p.metrics.cacheHit(diskHit)
		if traced {
			p.tracer.Record(jtc, tc.SpanID, "jobs.submit", tier,
				now.UnixNano(), time.Since(now).Nanoseconds())
		}
		if lg := p.jobLogger(jb); lg != nil {
			if diskHit {
				lg.Info("job served from persistent store")
			} else {
				lg.Info("job served from cache")
			}
		}
		return *jb, nil
	}
	if lead != nil {
		lead.followers = append(lead.followers, jb)
		tier = "tier=inflight"
	} else {
		select {
		case p.queue <- jb:
		default:
			p.seq-- // job was never registered; reuse the ID
			return Job{}, ErrQueueFull
		}
		if key != "" {
			p.inflight[key] = jb
		}
	}
	p.jobs[jb.ID] = jb
	p.metrics.jobQueued()
	if traced {
		p.tracer.Record(jtc, tc.SpanID, "jobs.submit", tier,
			now.UnixNano(), time.Since(now).Nanoseconds())
	}
	if lg := p.jobLogger(jb); lg != nil {
		if lead != nil {
			lg.Info("job attached to in-flight run", slog.String("leader", lead.ID))
		} else {
			lg.Info("job queued")
		}
	}
	return *jb, nil
}

// jobLogger returns the pool logger scoped to one job (job ID,
// configuration fingerprint and — when the job is traced — trace_id
// attrs), or nil when logging is disabled. The same logger rides the run
// context into the store and engine layers, so every line below the pool
// carries the full attribution and `grep trace_id=` reconstructs a
// request end to end.
func (p *Pool) jobLogger(jb *Job) *slog.Logger {
	if p.opts.Logger == nil {
		return nil
	}
	lg := p.opts.Logger.With(slog.String("job", jb.ID), slog.String("fingerprint", jb.Key))
	if jb.Trace.Valid() {
		lg = lg.With(slog.String("trace_id", jb.Trace.TraceString()))
	}
	return lg
}

// Get returns a snapshot of the job with the given ID.
func (p *Pool) Get(id string) (Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	jb, ok := p.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *jb, true
}

// List returns snapshots of all registered jobs in submission order.
func (p *Pool) List() []Job {
	p.mu.Lock()
	out := make([]Job, 0, len(p.jobs))
	for _, jb := range p.jobs {
		out = append(out, *jb)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Wait blocks until the job reaches a terminal state or ctx is done, and
// returns the terminal snapshot.
func (p *Pool) Wait(ctx context.Context, id string) (Job, error) {
	p.mu.Lock()
	jb, ok := p.jobs[id]
	p.mu.Unlock()
	if !ok {
		return Job{}, ErrUnknownJob
	}
	select {
	case <-jb.done:
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
	snap, _ := p.Get(id)
	return snap, nil
}

// Cancel requests cancellation of a job: a queued job is terminated
// immediately; a running job's context is canceled so its interpretation
// stops at the next budget checkpoint with a partial-result RunError. It
// returns false when the job is unknown or already terminal.
func (p *Pool) Cancel(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	jb, ok := p.jobs[id]
	if !ok {
		return false
	}
	switch jb.Status {
	case StatusQueued:
		jb.userCanceled = true
		p.finishLocked(jb, nil, context.Canceled)
		return true
	case StatusRunning:
		// Mark the cancellation as user-requested so the watchdog's requeue
		// path leaves the job alone: a user cancel is terminal.
		jb.userCanceled = true
		jb.cancel()
		return true
	}
	return false
}

// Metrics returns a consistent snapshot of the pool's counters.
func (p *Pool) Metrics() Snapshot {
	s := p.metrics.Snapshot()
	s.Resilience = p.res.Snapshot()
	return s
}

// PhaseLatencies returns windowed per-phase latency histograms merged
// from the RunReports of completed jobs, keyed by phase name.
func (p *Pool) PhaseLatencies() map[string]obs.HistSnapshot { return p.metrics.PhaseLatencies() }

// CacheLen returns the number of cached outcomes.
func (p *Pool) CacheLen() int { return p.cache.Len() }

// Close stops accepting submissions, cancels running jobs, marks queued
// jobs canceled and waits for the workers to exit.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.stop()
	p.wg.Wait()
	// Workers are gone; drain jobs still sitting in the queue.
	for {
		select {
		case jb := <-p.queue:
			p.mu.Lock()
			// Cancel the queued job and every duplicate waiting on it.
			for ; jb != nil; jb = p.handOffLocked(jb) {
				if jb.Status == StatusQueued {
					p.finishLocked(jb, nil, context.Canceled)
				}
			}
			p.mu.Unlock()
		default:
			return
		}
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	// Each worker owns a small cache of prepared engines, unshared and
	// unlocked; ConfigRun checks engines out through the run context.
	ec := newEngineCache(defaultEngineCache, p.metrics.engineReuse)
	// Each worker also owns one engine flight recorder, reset per attempt
	// and dumped into a postmortem when the attempt dies badly.
	var efl *obs.FlightRecorder
	if p.opts.FlightDepth > 0 {
		efl = obs.NewFlightRecorder(p.opts.FlightDepth)
	}
	for {
		select {
		case <-p.ctx.Done():
			return
		case jb := <-p.queue:
			for jb != nil {
				jb = p.run(jb, ec, efl)
			}
		}
	}
}

// watchdog periodically sweeps for running jobs past the stuck deadline,
// cancels them and lets run's requeue path give them a fresh attempt.
func (p *Pool) watchdog() {
	defer p.wg.Done()
	interval := p.opts.StuckAfter / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
			p.sweepStuck()
		}
	}
}

// sweepStuck deadlines every running job older than StuckAfter. The
// cancel is issued under the registry lock so it cannot race a requeue
// replacing jb.cancel with a fresh attempt's context.
func (p *Pool) sweepStuck() {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, jb := range p.jobs {
		if jb.Status != StatusRunning || jb.wedged || jb.userCanceled {
			continue
		}
		if now.Sub(jb.Started) <= p.opts.StuckAfter {
			continue
		}
		jb.wedged = true
		jb.cancel()
		p.svcFlight.RecordWall(obs.FlightWatchdog, int64(jb.attempts+1), 0, jb.ID)
		if lg := p.jobLogger(jb); lg != nil {
			lg.Warn("watchdog deadlined stuck job",
				slog.Duration("stuck_after", p.opts.StuckAfter), slog.Int("attempt", jb.attempts+1))
		}
	}
}

// maxRequeues resolves the per-job watchdog requeue budget.
func (p *Pool) maxRequeues() int {
	switch {
	case p.opts.MaxRequeues < 0:
		return 0
	case p.opts.MaxRequeues == 0:
		return 1
	default:
		return p.opts.MaxRequeues
	}
}

// run executes one dequeued job on the calling worker, whose engine
// cache (nil when disabled) and flight recorder (nil when disabled) ride
// along into the run context. When the job ends without an outcome, run
// returns the follower that takes over its computation, for the worker to
// run next; otherwise it returns nil.
func (p *Pool) run(jb *Job, ec *engineCache, efl *obs.FlightRecorder) *Job {
	p.mu.Lock()
	if jb.Status != StatusQueued { // canceled while queued
		next := p.handOffLocked(jb)
		p.mu.Unlock()
		return next
	}
	jb.Status = StatusRunning
	jb.Started = time.Now()
	started := jb.Started
	ctx, cancel := context.WithCancel(p.ctx)
	jb.cancel = cancel
	runner, budget := jb.runner, jb.budget
	p.mu.Unlock()
	p.metrics.jobDequeued()
	if jb.Key != "" {
		p.metrics.cacheMiss()
	}
	lg := p.jobLogger(jb)
	if lg != nil {
		lg.Info("job started")
	}
	traced := p.tracer != nil && jb.Trace.Valid()
	var rc obs.TraceContext // the attempt's run span
	if traced {
		p.tracer.Record(jb.Trace.Child(), jb.Trace.SpanID, "jobs.queue", "",
			jb.Submitted.UnixNano(), started.Sub(jb.Submitted).Nanoseconds())
		rc = jb.Trace.Child()
	}

	runCtx := withEngineCache(ctx, ec)
	runCtx = obs.CtxWithLogger(runCtx, lg)
	runCtx = obs.WithTrace(runCtx, rc)
	if efl != nil {
		efl.Reset()
		runCtx = obs.WithFlight(runCtx, efl)
	}
	out, err := p.safeRun(runCtx, runner, budget)
	cancel()

	p.mu.Lock()
	if err != nil && jb.wedged && !jb.userCanceled {
		// The watchdog killed this attempt. Requeue while the budget lasts;
		// past it the job fails (not "canceled": nobody asked for it).
		if jb.attempts < p.maxRequeues() {
			select {
			case p.queue <- jb:
				jb.attempts++
				jb.wedged = false
				jb.Status = StatusQueued
				attempt := jb.attempts
				p.mu.Unlock()
				p.metrics.jobRequeued()
				p.res.WatchdogRequeues.Add(1)
				if lg := p.jobLogger(jb); lg != nil {
					lg.Warn("stuck job requeued", slog.Int("attempt", attempt+1))
				}
				return nil
			default:
				// Queue full: fall through to a terminal failure.
			}
		}
		err = fmt.Errorf("%w: killed by watchdog after %s (%d attempts)", ErrStuck, p.opts.StuckAfter, jb.attempts+1)
	}
	var pm *Postmortem
	if err != nil {
		pm = p.buildPostmortemLocked(jb, err, efl)
	}
	p.finishLocked(jb, out, err)
	var next *Job
	if err != nil {
		// Only outcomes are shared: a failure may be this job's own (its
		// budget, a fault, a cancel), so a duplicate waiting on it runs
		// under its own budget instead.
		next = p.handOffLocked(jb)
	}
	if pm != nil && jb.Report != nil {
		jb.Report.Flight = pm.Engine
	}
	st, elapsed := jb.Status, jb.Finished.Sub(jb.Started)
	p.mu.Unlock()
	// Account for the run outside the registry lock, but before done
	// closes, so a waiter never reads counters that show it running.
	if out != nil {
		p.metrics.recordTelemetry(out.Telemetry)
	}
	p.metrics.jobFinished(st, elapsed, outcomeEvents(out))
	close(jb.done)
	if err == nil && jb.Key != "" {
		// Followers finish after the run is accounted for, for the same
		// reason.
		p.mu.Lock()
		p.releaseLocked(jb, out)
		p.mu.Unlock()
	}
	if traced {
		if out != nil && out.Telemetry != nil {
			// Fold the run's pipeline phases into the trace as children of
			// the run span: the timeline records offsets from the run start.
			base := started.UnixNano()
			for i := range out.Telemetry.Phases {
				ph := &out.Telemetry.Phases[i]
				p.tracer.Record(rc.Child(), rc.SpanID, ph.Name, "engine",
					base+ph.StartNS, ph.DurNS)
			}
		}
		p.tracer.Record(rc, jb.Trace.SpanID, "jobs.run", traceStatus(st),
			started.UnixNano(), elapsed.Nanoseconds())
	}
	if err == nil {
		// Persist the fresh outcome outside the registry lock: the write
		// fsyncs, and nothing in the registry depends on it landing.
		ps := time.Now()
		p.storePut(jb.Key, out, lg)
		if traced && p.store != nil {
			p.tracer.Record(rc.Child(), rc.SpanID, "store.put", "",
				ps.UnixNano(), time.Since(ps).Nanoseconds())
		}
	} else {
		p.persistPostmortem(pm, lg)
	}
	if lg != nil {
		if err != nil {
			lg.Warn("job finished", slog.String("status", string(st)),
				slog.Duration("elapsed", elapsed), slog.String("error", err.Error()))
		} else {
			lg.Info("job finished", slog.String("status", string(st)),
				slog.Duration("elapsed", elapsed), slog.Int64("events", outcomeEvents(out)))
		}
	}
	return next
}

// releaseLocked ends jb's successful computation: the key leaves the
// in-flight table and every follower still waiting finishes with jb's
// outcome as a cache hit. Callers hold p.mu.
func (p *Pool) releaseLocked(jb *Job, out *Outcome) {
	if p.inflight[jb.Key] == jb {
		delete(p.inflight, jb.Key)
	}
	for _, f := range jb.followers {
		if f.Status.Terminal() { // canceled while waiting
			continue
		}
		f.CacheHit = true
		p.finishLocked(f, out, nil)
	}
	jb.followers = nil
}

// handOffLocked passes the computation of jb, which ended without an
// outcome, to the first follower still waiting; that follower inherits
// the remaining followers and jb's place in the in-flight table. It
// returns that follower, or nil when none is left and the key has left
// the table. Callers hold p.mu.
func (p *Pool) handOffLocked(jb *Job) *Job {
	var next *Job
	for i, f := range jb.followers {
		if !f.Status.Terminal() {
			next = f
			next.followers = jb.followers[i+1:]
			break
		}
	}
	jb.followers = nil
	if p.inflight[jb.Key] == jb {
		if next != nil {
			p.inflight[jb.Key] = next
		} else {
			delete(p.inflight, jb.Key)
		}
	}
	return next
}

// safeRun executes the runner behind the worker fault sites and a panic
// fence: a panicking run (injected, or an organic defect in an analysis
// pipeline) is converted into a failed job instead of killing the worker
// and, with it, the whole service.
func (p *Pool) safeRun(ctx context.Context, r Runner, b nsa.Budget) (out *Outcome, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p.res.PanicsRecovered.Add(1)
			out = nil
			if perr, ok := rec.(error); ok {
				err = fmt.Errorf("jobs: worker panic recovered: %w", perr)
			} else {
				err = fmt.Errorf("jobs: worker panic recovered: %v", rec)
			}
		}
	}()
	if f := p.faults.Hit(fault.SiteWorkerLatency); f != nil {
		if serr := f.Sleep(ctx); serr != nil {
			return nil, serr
		}
	}
	if f := p.faults.Hit(fault.SiteWorkerRun); f != nil {
		if f.Kind == fault.KindPanic {
			panic(f.Err())
		}
		return nil, f.Err()
	}
	return r.Run(ctx, b)
}

// finishLocked moves jb to its terminal state. A job that never ran is
// accounted for in the metrics before done closes, so a waiter never
// reads counters that still show it queued; for a job that ran, run does
// both after it releases p.mu. Callers hold p.mu.
func (p *Pool) finishLocked(jb *Job, out *Outcome, err error) {
	ran := jb.Status == StatusRunning
	jb.Finished = time.Now()
	if jb.Started.IsZero() {
		jb.Started = jb.Finished
	}
	switch {
	case err != nil:
		jb.Err = err
		jb.Report = diag.FromError(p.opts.Tool, err, nil)
		jb.Status = StatusFailed
		if wasCanceled(err) {
			jb.Status = StatusCanceled
		}
	default:
		jb.Status = StatusDone
		jb.Outcome = out
		p.cache.Put(jb.Key, out)
	}
	if ran {
		return
	}
	p.metrics.queuedFinished(jb.Status)
	close(jb.done)
}

// outcomeEvents is the number of engine transitions a run fired.
func outcomeEvents(out *Outcome) int64 {
	if out == nil {
		return 0
	}
	return int64(out.Engine.Actions + out.Engine.Delays)
}

// traceStatus renders a terminal status as a constant span detail, so
// recording a run span never allocates.
func traceStatus(st Status) string {
	switch st {
	case StatusDone:
		return "status=done"
	case StatusFailed:
		return "status=failed"
	case StatusCanceled:
		return "status=canceled"
	default:
		return ""
	}
}

// wasCanceled reports whether err stems from cancellation rather than a
// defect: a direct context error or a RunError whose stop reason is
// StopCanceled.
func wasCanceled(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var rerr *nsa.RunError
	return errors.As(err, &rerr) && rerr.Reason == nsa.StopCanceled
}
