package obs

import "sync/atomic"

// Probe collects the hot-path counters of engine interpretation runs.
// A nil *Probe is the disabled probe: instrumented call sites guard with
// a nil check, so the disabled path costs one predictable branch and no
// memory traffic. A non-nil Probe may be shared by concurrent runs (the
// job pool aggregates every worker's runs into one); all fields are
// atomics, so bumps from parallel engines never race and never contend
// on a lock.
//
// Counter semantics (all monotonically increasing except DirtyMax):
//
//   - Steps, Actions, Delays: transitions taken. Steps is always
//     Actions+Delays; the redundancy is deliberate so exposition and
//     tests can check internal consistency.
//   - SyncInternal, SyncBinary, SyncBroadcast: action transitions by
//     synchronization kind; their sum equals Actions.
//   - GuardEvals: guard evaluations on the compiled interpretation paths
//     (engine runtime recomputation and Enumerator scans), split into
//     GuardCompiled (any compiled tier: no guard, inlined comparison or
//     bytecode), GuardBytecode (the bytecode and inlined-comparison subset
//     of GuardCompiled) and GuardOpaque (interface dispatch through the
//     environment).
//   - EnabledCalls: enabled-set queries. Recomputes counts automata whose
//     cached enabled sets had to be rebuilt (dirty); CacheReuses counts
//     automata whose cached sets were still valid. DirtyTotal sums the
//     dirty-set size over all queries (DirtyTotal/EnabledCalls is the
//     mean); DirtyMax is the peak dirty-set size observed.
//   - HeapPushes: deadline-heap insertions (invariant expiry and guard
//     wake-up heaps). HeapPops counts stale entries lazily dropped when
//     they surfaced at the heap top; HeapStale counts stale entries
//     removed by wholesale compaction.
//   - DeadlineRecomputes: per-automaton deadline refreshes on the compiled
//     backend's deadline-dirty plane. EnabledUnchanged counts enabled-set
//     recomputations that produced an identical set (surgery skipped).
//     FirstFast counts steps served by the first-transition fast path
//     without materializing the candidate list.
type Probe struct {
	Steps   atomic.Int64
	Actions atomic.Int64
	Delays  atomic.Int64

	SyncInternal  atomic.Int64
	SyncBinary    atomic.Int64
	SyncBroadcast atomic.Int64

	GuardEvals    atomic.Int64
	GuardCompiled atomic.Int64
	GuardBytecode atomic.Int64
	GuardOpaque   atomic.Int64

	EnabledCalls atomic.Int64
	Recomputes   atomic.Int64
	CacheReuses  atomic.Int64
	DirtyTotal   atomic.Int64
	DirtyMax     atomic.Int64

	HeapPushes atomic.Int64
	HeapPops   atomic.Int64
	HeapStale  atomic.Int64

	DeadlineRecomputes atomic.Int64
	EnabledUnchanged   atomic.Int64
	FirstFast          atomic.Int64
}

// Counters is a plain snapshot of a Probe, the JSON wire form embedded in
// RunReport, the benchtable report and the /metrics exposition.
type Counters struct {
	Steps   int64 `json:"steps"`
	Actions int64 `json:"actions"`
	Delays  int64 `json:"delays"`

	SyncInternal  int64 `json:"sync_internal"`
	SyncBinary    int64 `json:"sync_binary"`
	SyncBroadcast int64 `json:"sync_broadcast"`

	GuardEvals    int64 `json:"guard_evals"`
	GuardCompiled int64 `json:"guard_compiled"`
	GuardBytecode int64 `json:"guard_bytecode"`
	GuardOpaque   int64 `json:"guard_opaque"`

	EnabledCalls int64 `json:"enabled_calls"`
	Recomputes   int64 `json:"recomputes"`
	CacheReuses  int64 `json:"cache_reuses"`
	DirtyTotal   int64 `json:"dirty_total"`
	DirtyMax     int64 `json:"dirty_max"`

	HeapPushes int64 `json:"heap_pushes"`
	HeapPops   int64 `json:"heap_pops"`
	HeapStale  int64 `json:"heap_stale"`

	DeadlineRecomputes int64 `json:"deadline_recomputes"`
	EnabledUnchanged   int64 `json:"enabled_unchanged"`
	FirstFast          int64 `json:"first_fast"`
}

// Snapshot returns a consistent-enough copy of the counters: each field
// is loaded atomically, but concurrent writers may land between loads.
// Nil-safe: a nil probe snapshots to the zero Counters.
func (p *Probe) Snapshot() Counters {
	if p == nil {
		return Counters{}
	}
	return Counters{
		Steps:         p.Steps.Load(),
		Actions:       p.Actions.Load(),
		Delays:        p.Delays.Load(),
		SyncInternal:  p.SyncInternal.Load(),
		SyncBinary:    p.SyncBinary.Load(),
		SyncBroadcast: p.SyncBroadcast.Load(),
		GuardEvals:         p.GuardEvals.Load(),
		GuardCompiled:      p.GuardCompiled.Load(),
		GuardBytecode:      p.GuardBytecode.Load(),
		GuardOpaque:        p.GuardOpaque.Load(),
		EnabledCalls:       p.EnabledCalls.Load(),
		Recomputes:         p.Recomputes.Load(),
		CacheReuses:        p.CacheReuses.Load(),
		DirtyTotal:         p.DirtyTotal.Load(),
		DirtyMax:           p.DirtyMax.Load(),
		HeapPushes:         p.HeapPushes.Load(),
		HeapPops:           p.HeapPops.Load(),
		HeapStale:          p.HeapStale.Load(),
		DeadlineRecomputes: p.DeadlineRecomputes.Load(),
		EnabledUnchanged:   p.EnabledUnchanged.Load(),
		FirstFast:          p.FirstFast.Load(),
	}
}

// Merge adds a snapshot into the probe; DirtyMax merges as a maximum.
// Used by the job pool to fold per-run counters into the service-wide
// aggregate. Nil-safe no-op.
func (p *Probe) Merge(c Counters) {
	if p == nil {
		return
	}
	p.Steps.Add(c.Steps)
	p.Actions.Add(c.Actions)
	p.Delays.Add(c.Delays)
	p.SyncInternal.Add(c.SyncInternal)
	p.SyncBinary.Add(c.SyncBinary)
	p.SyncBroadcast.Add(c.SyncBroadcast)
	p.GuardEvals.Add(c.GuardEvals)
	p.GuardCompiled.Add(c.GuardCompiled)
	p.GuardBytecode.Add(c.GuardBytecode)
	p.GuardOpaque.Add(c.GuardOpaque)
	p.EnabledCalls.Add(c.EnabledCalls)
	p.Recomputes.Add(c.Recomputes)
	p.CacheReuses.Add(c.CacheReuses)
	p.DirtyTotal.Add(c.DirtyTotal)
	p.RaiseDirtyMax(c.DirtyMax)
	p.HeapPushes.Add(c.HeapPushes)
	p.HeapPops.Add(c.HeapPops)
	p.HeapStale.Add(c.HeapStale)
	p.DeadlineRecomputes.Add(c.DeadlineRecomputes)
	p.EnabledUnchanged.Add(c.EnabledUnchanged)
	p.FirstFast.Add(c.FirstFast)
}

// Reset zeroes every counter. Persistent prepared engines share one probe
// across Reset+Run cycles (the runtimes capture the probe pointer at
// construction), so per-run telemetry resets it between runs. Not atomic
// as a whole: reset only between runs, never concurrently with one.
// Nil-safe no-op.
func (p *Probe) Reset() {
	if p == nil {
		return
	}
	p.Steps.Store(0)
	p.Actions.Store(0)
	p.Delays.Store(0)
	p.SyncInternal.Store(0)
	p.SyncBinary.Store(0)
	p.SyncBroadcast.Store(0)
	p.GuardEvals.Store(0)
	p.GuardCompiled.Store(0)
	p.GuardBytecode.Store(0)
	p.GuardOpaque.Store(0)
	p.EnabledCalls.Store(0)
	p.Recomputes.Store(0)
	p.CacheReuses.Store(0)
	p.DirtyTotal.Store(0)
	p.DirtyMax.Store(0)
	p.HeapPushes.Store(0)
	p.HeapPops.Store(0)
	p.HeapStale.Store(0)
	p.DeadlineRecomputes.Store(0)
	p.EnabledUnchanged.Store(0)
	p.FirstFast.Store(0)
}

// RaiseDirtyMax lifts DirtyMax to at least v (CAS loop; lock-free).
// Nil-safe no-op.
func (p *Probe) RaiseDirtyMax(v int64) {
	if p == nil {
		return
	}
	for {
		cur := p.DirtyMax.Load()
		if v <= cur || p.DirtyMax.CompareAndSwap(cur, v) {
			return
		}
	}
}
