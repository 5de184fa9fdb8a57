package jobs

import (
	"sync"
	"time"

	"stopwatchsim/internal/obs"
)

// Latency quantiles cover the most recent metricsWindow of runs, tracked
// in metricsSubWindows rotating sub-windows (see obs.Histogram). The old
// fixed-size ring mixed ancient runs with recent ones and sorted a sample
// on every snapshot; the windowed histogram shares its bucket layout with
// the per-phase Prometheus histograms.
const (
	metricsWindow     = 5 * time.Minute
	metricsSubWindows = 5
)

// Metrics aggregates pool activity for the /metrics endpoint: job
// lifecycle counters, cache effectiveness, run-latency quantiles over a
// sliding window of recent runs, aggregate engine hot-path counters, and
// per-phase latency histograms merged from the RunReports of completed
// jobs.
type Metrics struct {
	mu sync.Mutex

	submitted int64
	queued    int64 // gauge
	running   int64 // gauge
	done      int64
	failed    int64
	canceled  int64

	cacheHits   int64
	cacheMisses int64
	storeHits   int64 // cache hits served by the persistent tier

	// engineReuses counts runs served by a worker's prepared-engine cache
	// (Reset+Run on a persistent engine instead of a fresh build).
	engineReuses int64

	// postmortems counts flight-recorder dumps written for runs that
	// ended in deadlock, watchdog kill, panic or injected fault.
	postmortems int64

	// Engine throughput: total synchronization transitions fired over the
	// total wall time spent interpreting.
	events int64
	busy   time.Duration

	runLat *obs.Histogram // windowed run-latency estimator

	// engine accumulates the hot-path counters of every completed run;
	// phases holds one windowed latency histogram per pipeline phase.
	// Both are fed by recordTelemetry from the runs' RunReports.
	engine obs.Probe
	phases map[string]*obs.Histogram
}

func newMetrics() *Metrics {
	return &Metrics{
		runLat: obs.NewHistogram(metricsWindow, metricsSubWindows, nil),
		phases: make(map[string]*obs.Histogram),
	}
}

// Snapshot is a consistent copy of the metrics with derived statistics.
type Snapshot struct {
	Submitted int64 `json:"submitted"`
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`

	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// StoreHits counts the subset of CacheHits served by the persistent
	// tier (an in-memory miss that a store lookup satisfied).
	StoreHits int64 `json:"store_hits"`
	// EngineReuses counts runs that Reset+Ran a worker's cached prepared
	// engine instead of rebuilding the network from scratch.
	EngineReuses int64 `json:"engine_reuses"`
	// Postmortems counts flight-recorder dumps written for failed runs.
	Postmortems int64 `json:"postmortems"`

	// LatencyP50/P90/P99 are run-latency quantiles over the recent
	// window, zero until a run completes (or after the window drains).
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP90 time.Duration `json:"latency_p90_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`

	// EventsPerSec is the aggregate interpretation throughput:
	// synchronization transitions fired per second of engine wall time.
	EventsPerSec float64 `json:"events_per_sec"`

	// Engine is the sum of the hot-path counters of every completed run.
	Engine obs.Counters `json:"engine"`

	// Resilience is the pool's self-healing counters (store retries,
	// breaker activity, watchdog requeues, recovered panics); filled in by
	// Pool.Metrics, not by the Metrics collector itself.
	Resilience obs.ResilienceCounters `json:"resilience"`
}

func (m *Metrics) jobQueued() {
	m.mu.Lock()
	m.submitted++
	m.queued++
	m.mu.Unlock()
}

func (m *Metrics) jobDequeued() {
	m.mu.Lock()
	m.queued--
	m.running++
	m.mu.Unlock()
}

// jobRequeued accounts for a running job the watchdog sent back to the
// queue for a fresh attempt.
func (m *Metrics) jobRequeued() {
	m.mu.Lock()
	m.running--
	m.queued++
	m.mu.Unlock()
}

// jobFinished records a terminal transition of a running job. events is the
// number of engine transitions the run fired; elapsed its wall time.
func (m *Metrics) jobFinished(st Status, elapsed time.Duration, events int64) {
	m.mu.Lock()
	m.running--
	switch st {
	case StatusFailed:
		m.failed++
	case StatusCanceled:
		m.canceled++
	default:
		m.done++
	}
	m.events += events
	m.busy += elapsed
	m.mu.Unlock()
	m.runLat.Observe(elapsed)
}

// recordTelemetry merges one run's RunReport into the aggregates: counters
// into the engine probe, phase durations into the per-phase histograms.
// Nil-safe: jobs that failed before producing a report contribute nothing.
func (m *Metrics) recordTelemetry(r *obs.RunReport) {
	if r == nil {
		return
	}
	m.engine.Merge(r.Counters)
	for _, ph := range r.Phases {
		if ph.Depth > 0 {
			continue // top-level phases only; nested spans would double-count
		}
		m.mu.Lock()
		if m.phases == nil {
			m.phases = make(map[string]*obs.Histogram)
		}
		h := m.phases[ph.Name]
		if h == nil {
			h = obs.NewHistogram(metricsWindow, metricsSubWindows, nil)
			m.phases[ph.Name] = h
		}
		m.mu.Unlock()
		h.Observe(time.Duration(ph.DurNS))
	}
}

// PhaseLatencies returns a merged snapshot of every per-phase latency
// histogram, keyed by phase name.
func (m *Metrics) PhaseLatencies() map[string]obs.HistSnapshot {
	m.mu.Lock()
	hs := make(map[string]*obs.Histogram, len(m.phases))
	for name, h := range m.phases {
		hs[name] = h
	}
	m.mu.Unlock()
	out := make(map[string]obs.HistSnapshot, len(hs))
	for name, h := range hs {
		out[name] = h.Snapshot()
	}
	return out
}

// cacheHit accounts for a submission served entirely from the cache;
// disk marks a hit satisfied by the persistent tier.
func (m *Metrics) cacheHit(disk bool) {
	m.mu.Lock()
	m.submitted++
	m.done++
	m.cacheHits++
	if disk {
		m.storeHits++
	}
	m.mu.Unlock()
}

// queuedFinished accounts for a job that ended without running: canceled
// while queued, or done with the outcome of the identical run it waited
// on (a cache hit).
func (m *Metrics) queuedFinished(st Status) {
	m.mu.Lock()
	m.queued--
	if st == StatusCanceled {
		m.canceled++
	} else {
		m.done++
		m.cacheHits++
	}
	m.mu.Unlock()
}

func (m *Metrics) cacheMiss() {
	m.mu.Lock()
	m.cacheMisses++
	m.mu.Unlock()
}

// engineReuse accounts for a run served by a worker's prepared-engine
// cache.
func (m *Metrics) engineReuse() {
	m.mu.Lock()
	m.engineReuses++
	m.mu.Unlock()
}

// postmortem accounts for one flight-recorder dump.
func (m *Metrics) postmortem() {
	m.mu.Lock()
	m.postmortems++
	m.mu.Unlock()
}

// Snapshot returns a consistent copy with derived quantiles and rates.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	s := Snapshot{
		Submitted:    m.submitted,
		Queued:       m.queued,
		Running:      m.running,
		Done:         m.done,
		Failed:       m.failed,
		Canceled:     m.canceled,
		CacheHits:    m.cacheHits,
		CacheMisses:  m.cacheMisses,
		StoreHits:    m.storeHits,
		EngineReuses: m.engineReuses,
	}
	if total := m.cacheHits + m.cacheMisses; total > 0 {
		s.CacheHitRate = float64(m.cacheHits) / float64(total)
	}
	if m.busy > 0 {
		s.EventsPerSec = float64(m.events) / m.busy.Seconds()
	}
	m.mu.Unlock()
	s.LatencyP50 = m.runLat.Quantile(0.50)
	s.LatencyP90 = m.runLat.Quantile(0.90)
	s.LatencyP99 = m.runLat.Quantile(0.99)
	s.Engine = m.engine.Snapshot()
	return s
}
