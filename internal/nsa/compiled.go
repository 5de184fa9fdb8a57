package nsa

import (
	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/sa"
)

// compiledRuntime is the compiled interpretation backend: it executes the
// network's flat compiledNet form against a persistent structure-of-arrays
// scratch arena, allocating nothing on the steady-state hot path. After each
// step it re-evaluates only the automata the step may have affected:
// transition participants, readers of the variables and clocks the
// transition wrote (per the static write footprints in compiledNet),
// readers of clocks whose stopped status flipped, and — after a delay — the
// automata whose current location has a clock-dependent guard. Invariant
// expiries and guard wake-up points live in lazily-invalidated min-heaps
// keyed by absolute model time. On top of that dirty tracking it adds three
// mechanisms:
//
//   - Guards and updates run as inlined comparisons or expression bytecode
//     (compiledNet), with one shared register file.
//   - Enabled-set maintenance and deadline maintenance are split into two
//     dirt planes. Per-channel synchronization half lists are maintained
//     incrementally (sorted surgery on location changes) instead of being
//     rebuilt every step, which makes selecting the first transition in
//     canonical order possible without materializing the candidate list.
//   - Deadline recomputation is deferred and batched per instant: automata
//     dirtied by the actions of one time point recompute their invariant
//     expiry and guard wake-up once, when the instant's delay bound is
//     finally queried, not once per action.
//
// The semantics contract is byte-identical to the naive path, including
// SemanticsError messages; engine CheckEngine mode compares the two after
// every step.
//
// The runtime owns its State for the duration of a run: all mutations must
// go through fire and advance, or the caches go stale.
type compiledRuntime struct {
	net *Network
	cn  *compiledNet
	s   *State
	env stateEnv

	regs []int64 // shared bytecode register file (cn.maxRegs)

	// Cached per-automaton enabled sets, valid unless enDirty.
	enInternal [][]int32
	enSend     [][]halfRef
	enRecv     [][]halfRef
	// wakeEdges[ai] indexes the disabled waker edges of ai's current
	// location (positions in cloc.edges), the edges contributing wake-up
	// points.
	wakeEdges [][]int32

	// gen[ai] invalidates heap entries; bumped by recomputeDeadline.
	gen []uint32

	// The enabled dirt plane: recomputed by settle before any query.
	enDirty []bool
	enList  []int32
	// The deadline dirt plane: reconciled by delayBound, at most once per
	// instant.
	dlDirty []bool
	dlList  []int32

	activeInternal autSet // automata with ≥1 enabled internal edge
	clockSens      autSet // automata whose current location is clock-sensitive
	volatileWake   autSet // automata with a disabled volatile-waker edge
	activeCh       autSet // channels with ≥1 enabled half (IDs, not automata)
	// first()'s hot loops iterate these instead of activeCh: activeBin holds
	// binary channels with at least one sender AND one receiver, activeBcast
	// broadcast channels with at least one sender. Both stay sorted
	// (ascending channel ID), preserving the canonical enumeration order.
	activeBin   autSet
	activeBcast autSet

	// cl holds the persistent per-channel half lists, sorted by (aut, edge).
	// The lists are maintained incrementally and never reset between steps;
	// cl.touched is refilled from activeCh when the full candidate
	// enumeration needs it.
	cl    *chanLists
	arena partsArena

	stopCount []int32
	stopped   []bool
	running   func(int) bool

	committedCount int

	expiry timeHeap // invariant expiry deadlines (absolute)
	wakes  timeHeap // guard wake-up points (absolute)

	oldLocs []sa.LocID // scratch for fire

	// Scratch for recomputeEnabled's set comparison.
	scrInt  []int32
	scrSend []halfRef
	scrRecv []halfRef
	scrWake []int32

	probe                                      *obs.Probe
	guards                                     guardCounts
	statPush, statDl, statUnchanged, statFirst int64
}

func newCompiledRuntime(net *Network, s *State, probe *obs.Probe) *compiledRuntime {
	cn := net.compiled()
	na := len(net.Automata)
	r := &compiledRuntime{
		net:        net,
		cn:         cn,
		s:          s,
		env:        stateEnv{n: net, s: s},
		regs:       make([]int64, cn.maxRegs),
		enInternal: make([][]int32, na),
		enSend:     make([][]halfRef, na),
		enRecv:     make([][]halfRef, na),
		wakeEdges:  make([][]int32, na),
		gen:        make([]uint32, na),
		enDirty:    make([]bool, na),
		dlDirty:    make([]bool, na),

		activeInternal: newAutSet(na),
		clockSens:      newAutSet(na),
		volatileWake:   newAutSet(na),
		activeCh:       newAutSet(len(net.Chans)),
		activeBin:      newAutSet(len(net.Chans)),
		activeBcast:    newAutSet(len(net.Chans)),

		cl:        newChanLists(len(net.Chans)),
		stopCount: make([]int32, len(net.Clocks)),
		stopped:   make([]bool, len(net.Clocks)),
		probe:     probe,
	}
	r.running = func(c int) bool { return !r.stopped[c] }
	r.seed()
	return r
}

// seed derives all incremental state from the current State and marks both
// dirt planes everywhere. Called at construction and by reset.
func (r *compiledRuntime) seed() {
	for ai := range r.net.Automata {
		loc := int(r.s.Locs[ai])
		c := &r.cn.locs[r.cn.locBase[ai]+int32(loc)]
		if c.committed {
			r.committedCount++
		}
		if c.clockSensitive {
			r.clockSens.insert(int32(ai))
		}
		for _, cl := range r.net.Automata[ai].Locations[loc].Stopped {
			r.stopCount[cl]++
			r.stopped[cl] = true
		}
		r.markEn(int32(ai))
		r.markDl(int32(ai))
	}
}

// reset discards all cached incremental state and re-seeds from the
// runtime's State (restored by the caller), keeping allocations for reuse.
func (r *compiledRuntime) reset() {
	for ai := range r.enDirty {
		r.enInternal[ai] = r.enInternal[ai][:0]
		r.enSend[ai] = r.enSend[ai][:0]
		r.enRecv[ai] = r.enRecv[ai][:0]
		r.wakeEdges[ai] = r.wakeEdges[ai][:0]
		r.enDirty[ai] = false
		r.dlDirty[ai] = false
	}
	r.enList = r.enList[:0]
	r.dlList = r.dlList[:0]
	r.activeInternal.clear()
	r.clockSens.clear()
	r.volatileWake.clear()
	for _, ch := range r.activeCh.list {
		r.cl.sends[ch] = r.cl.sends[ch][:0]
		r.cl.recvs[ch] = r.cl.recvs[ch][:0]
	}
	r.activeCh.clear()
	r.activeBin.clear()
	r.activeBcast.clear()
	r.cl.touched = r.cl.touched[:0]
	r.arena.reset()
	for c := range r.stopCount {
		r.stopCount[c] = 0
		r.stopped[c] = false
	}
	r.committedCount = 0
	r.expiry.e = r.expiry.e[:0]
	r.wakes.e = r.wakes.e[:0]
	r.seed()
}

func (r *compiledRuntime) markEn(ai int32) {
	if !r.enDirty[ai] {
		r.enDirty[ai] = true
		r.enList = append(r.enList, ai)
	}
}

func (r *compiledRuntime) markDl(ai int32) {
	if !r.dlDirty[ai] {
		r.dlDirty[ai] = true
		r.dlList = append(r.dlList, ai)
	}
}

func (r *compiledRuntime) markBoth(ais []int32) {
	for _, ai := range ais {
		r.markEn(ai)
		r.markDl(ai)
	}
}

func (r *compiledRuntime) dirtyAllBoth() {
	for ai := range r.enDirty {
		r.markEn(int32(ai))
		r.markDl(int32(ai))
	}
}

// settle recomputes the enabled sets of every dirty automaton (plus the
// always-dirty ones). Both query paths (first, enabled) and delayBound call
// it; on a clean plane it is a no-op.
func (r *compiledRuntime) settle() {
	for _, ai := range r.cn.alwaysDirty {
		// Opaque footprints can change anything between steps, including
		// wake points and delay room: keep both planes dirty.
		r.markEn(ai)
		r.markDl(ai)
	}
	nd := len(r.enList)
	for _, ai := range r.enList {
		r.recomputeEnabled(ai)
		r.enDirty[ai] = false
	}
	r.enList = r.enList[:0]
	if p := r.probe; p != nil {
		p.Recomputes.Add(int64(nd))
		p.CacheReuses.Add(int64(len(r.enDirty) - nd))
		p.DirtyTotal.Add(int64(nd))
		p.RaiseDirtyMax(int64(nd))
	}
}

// recomputeEnabled re-evaluates every guard of ai's current location into
// scratch, and only when the result differs from the cached sets performs
// the list surgery (active sets, per-channel half lists) and marks the
// deadline plane. Unchanged results — the common case after a delay dirties
// every clock-sensitive automaton — cost the guard evaluations and one
// comparison, nothing else.
func (r *compiledRuntime) recomputeEnabled(ai int32) {
	c := r.cn.loc(ai, r.s)
	counting := r.probe != nil
	r.scrInt = r.scrInt[:0]
	r.scrSend = r.scrSend[:0]
	r.scrRecv = r.scrRecv[:0]
	r.scrWake = r.scrWake[:0]
	hasVolatile := false
	for i := range c.edges {
		ce := &c.edges[i]
		if counting {
			r.guards.count(ce.gkind)
		}
		if r.cn.evalGuard(ce, r.s.Vars, r.s.Clocks, r.regs, &r.env) {
			switch ce.dir {
			case sa.NoSync:
				r.scrInt = append(r.scrInt, ce.edge)
			case sa.Send:
				r.scrSend = append(r.scrSend, halfRef{ce.edge, ce.ch})
			case sa.Recv:
				r.scrRecv = append(r.scrRecv, halfRef{ce.edge, ce.ch})
			}
		} else if ce.waker >= 0 {
			r.scrWake = append(r.scrWake, int32(i))
			if ce.volatileWaker {
				hasVolatile = true
			}
		}
	}

	if eqInt32(r.scrInt, r.enInternal[ai]) && eqHalfRef(r.scrSend, r.enSend[ai]) &&
		eqHalfRef(r.scrRecv, r.enRecv[ai]) && eqInt32(r.scrWake, r.wakeEdges[ai]) {
		r.statUnchanged++
		return
	}

	if wasInt, nowInt := len(r.enInternal[ai]) > 0, len(r.scrInt) > 0; wasInt != nowInt {
		if nowInt {
			r.activeInternal.insert(ai)
		} else {
			r.activeInternal.remove(ai)
		}
	}
	for _, h := range r.enSend[ai] {
		r.cl.sends[h.ch] = removeHalf(r.cl.sends[h.ch], half{int(ai), int(h.edge)})
		r.updateChanIndex(h.ch)
	}
	for _, h := range r.enRecv[ai] {
		r.cl.recvs[h.ch] = removeHalf(r.cl.recvs[h.ch], half{int(ai), int(h.edge)})
		r.updateChanIndex(h.ch)
	}
	r.enInternal[ai] = append(r.enInternal[ai][:0], r.scrInt...)
	r.enSend[ai] = append(r.enSend[ai][:0], r.scrSend...)
	r.enRecv[ai] = append(r.enRecv[ai][:0], r.scrRecv...)
	r.wakeEdges[ai] = append(r.wakeEdges[ai][:0], r.scrWake...)
	for _, h := range r.enSend[ai] {
		r.cl.sends[h.ch] = insertHalf(r.cl.sends[h.ch], half{int(ai), int(h.edge)})
		r.updateChanIndex(h.ch)
	}
	for _, h := range r.enRecv[ai] {
		r.cl.recvs[h.ch] = insertHalf(r.cl.recvs[h.ch], half{int(ai), int(h.edge)})
		r.updateChanIndex(h.ch)
	}
	if hasVolatile {
		r.volatileWake.insert(ai)
	} else {
		r.volatileWake.remove(ai)
	}
	r.markDl(ai)
}

// updateChanIndex reconciles all three channel index sets with the current
// half-list lengths of ch, after any insertHalf/removeHalf surgery.
func (r *compiledRuntime) updateChanIndex(ch sa.ChanID) {
	ns, nr := len(r.cl.sends[ch]), len(r.cl.recvs[ch])
	if ns == 0 && nr == 0 {
		r.activeCh.remove(int32(ch))
	} else {
		r.activeCh.insert(int32(ch))
	}
	if r.cn.broadcast[ch] {
		if ns > 0 {
			r.activeBcast.insert(int32(ch))
		} else {
			r.activeBcast.remove(int32(ch))
		}
		return
	}
	if ns > 0 && nr > 0 {
		r.activeBin.insert(int32(ch))
	} else {
		r.activeBin.remove(int32(ch))
	}
}

func eqInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqHalfRef(a, b []halfRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// insertHalf inserts h into a (aut, edge)-sorted list; removeHalf deletes
// it. The lists are per channel and typically hold a handful of halves, so
// linear scans beat binary search plus copy.
func insertHalf(list []half, h half) []half {
	i := len(list)
	for i > 0 && (list[i-1].aut > h.aut || (list[i-1].aut == h.aut && list[i-1].edge > h.edge)) {
		i--
	}
	list = append(list, half{})
	copy(list[i+1:], list[i:])
	list[i] = h
	return list
}

func removeHalf(list []half, h half) []half {
	for i := range list {
		if list[i] == h {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

func (r *compiledRuntime) locCommitted(ai int) bool {
	return r.cn.loc(int32(ai), r.s).committed
}

// first returns the first enabled transition in the canonical order of
// EnabledTransitions — after the committed-location and process-priority
// filters — without materializing the candidate list. With uniform
// priorities (the common case) it returns at the first enabled transition
// found; with mixed priorities it keeps the first transition of the
// maximal-priority class, exactly what filterPriority would leave at
// position zero. The returned Parts live in the runtime's arena until the
// next query.
func (r *compiledRuntime) first() (Transition, bool) {
	r.settle()
	r.statFirst++
	if p := r.probe; p != nil {
		p.EnabledCalls.Add(1)
		r.flushStats()
	}
	r.arena.reset()
	committed := r.committedCount > 0
	cn := r.cn
	// filterPriority starts its running maximum at 0, so a transition with
	// negative priority survives only if nothing reaches 0; replicate that
	// by seeding bestPrio with 0 and requiring the first accepted candidate
	// to meet it.
	bestPrio := int32(0)
	have := false
	var best Transition

	take := func(p int32) bool { return p > bestPrio || (!have && p == bestPrio) }

	for _, ai := range r.activeInternal.list {
		if committed && !r.locCommitted(int(ai)) {
			continue
		}
		if p := cn.prio[ai]; take(p) {
			bestPrio, have = p, true
			best = Transition{Kind: Internal, Chan: sa.NoChan,
				Parts: r.arena.one(Part{int(ai), int(r.enInternal[ai][0])})}
			if p == cn.maxPrio {
				return best, true
			}
		}
	}
	for _, chi := range r.activeBin.list {
		ch := sa.ChanID(chi)
		sends, recvs := r.cl.sends[ch], r.cl.recvs[ch]
		for _, snd := range sends {
			for _, rcv := range recvs {
				if rcv.aut == snd.aut {
					continue
				}
				if committed && !r.locCommitted(snd.aut) && !r.locCommitted(rcv.aut) {
					continue
				}
				p := cn.prio[snd.aut]
				if q := cn.prio[rcv.aut]; q > p {
					p = q
				}
				if take(p) {
					bestPrio, have = p, true
					best = Transition{Kind: BinarySync, Chan: ch,
						Parts: r.arena.two(Part{snd.aut, snd.edge}, Part{rcv.aut, rcv.edge})}
					if p == cn.maxPrio {
						return best, true
					}
				}
			}
		}
	}
	for _, chi := range r.activeBcast.list {
		ch := sa.ChanID(chi)
		for _, snd := range r.cl.sends[ch] {
			// The first combination of a broadcast sender takes the first
			// enabled receive edge of each receiver automaton; every
			// combination of one sender shares the same participant set, so
			// the first one carries the class's priority.
			committedOK := !committed || r.locCommitted(snd.aut)
			p := cn.prio[snd.aut]
			r.cl.combo = append(r.cl.combo[:0], Part{snd.aut, snd.edge})
			recvs := r.cl.recvs[ch]
			for lo := 0; lo < len(recvs); {
				aut := recvs[lo].aut
				if aut != snd.aut {
					r.cl.combo = append(r.cl.combo, Part{aut, recvs[lo].edge})
					if q := cn.prio[aut]; q > p {
						p = q
					}
					if committed && r.locCommitted(aut) {
						committedOK = true
					}
				}
				for lo < len(recvs) && recvs[lo].aut == aut {
					lo++
				}
			}
			if !committedOK {
				continue
			}
			if take(p) {
				bestPrio, have = p, true
				best = Transition{Kind: Broadcast, Chan: ch, Parts: r.arena.copyOf(r.cl.combo)}
				if p == cn.maxPrio {
					return best, true
				}
			}
		}
	}
	return best, have
}

// enabled computes the full candidate list in canonical order, for choosers
// that need all options and for CheckEngine. Parts live in the runtime's
// arena until the next query.
func (r *compiledRuntime) enabled(buf []Transition) []Transition {
	r.settle()
	if p := r.probe; p != nil {
		p.EnabledCalls.Add(1)
		r.flushStats()
	}
	r.arena.reset()
	r.cl.touched = r.cl.touched[:0]
	for _, chi := range r.activeCh.list {
		r.cl.touched = append(r.cl.touched, sa.ChanID(chi))
	}
	committed := r.committedCount > 0
	for _, ai := range r.activeInternal.list {
		if committed && !r.locCommitted(int(ai)) {
			continue
		}
		for _, ei := range r.enInternal[ai] {
			buf = append(buf, Transition{Kind: Internal, Chan: sa.NoChan, Parts: r.arena.one(Part{int(ai), int(ei)})})
		}
	}
	buf = r.net.emitSyncs(buf, r.s, r.cl, committed, &r.arena)
	return r.net.filterPriority(buf)
}

// urgentBlocked reports whether a synchronization over an urgent channel is
// enabled, from the persistent half lists.
func (r *compiledRuntime) urgentBlocked() bool {
	for _, chi := range r.cn.urgentChans {
		ch := sa.ChanID(chi)
		if !r.activeCh.member[chi] {
			continue
		}
		if r.cn.broadcast[ch] {
			if len(r.cl.sends[ch]) > 0 {
				return true
			}
			continue
		}
		for _, snd := range r.cl.sends[ch] {
			for _, rcv := range r.cl.recvs[ch] {
				if rcv.aut != snd.aut {
					return true
				}
			}
		}
	}
	return false
}

// delayBound returns the delay information of the current state. This is
// where the instant's deferred deadline work happens: every automaton the
// instant's actions marked deadline-dirty recomputes its invariant expiry
// and guard wake-up once, here, instead of once per action. Wake entries
// computed from conservative NextEnable estimates may surface at or before
// the current time with the guard still disabled; such entries are
// re-derived on the spot (each re-derivation lands strictly in the future
// or drops the entry, so the loop terminates).
func (r *compiledRuntime) delayBound() DelayInfo {
	if r.committedCount > 0 {
		return DelayInfo{Blocked: true}
	}
	r.settle()
	if r.urgentBlocked() {
		return DelayInfo{Blocked: true}
	}
	for _, ai := range r.dlList {
		if r.dlDirty[ai] {
			r.recomputeDeadline(ai)
		}
	}
	r.dlList = r.dlList[:0]
	now := r.s.Time
	for {
		abs, ai, ok := r.wakes.minEntry(r.gen)
		if !ok || abs > now {
			break
		}
		r.recomputeDeadline(ai)
	}
	info := DelayInfo{Max: expr.NoBound, Wake: expr.NoBound}
	if abs, ok := r.expiry.min(r.gen); ok {
		info.Max = abs - now
	}
	if abs, ok := r.wakes.min(r.gen); ok {
		info.Wake = abs - now
	}
	return info
}

// recomputeDeadline refreshes ai's absolute invariant expiry and guard
// wake-up heap entries, invalidating the old ones via the generation bump.
func (r *compiledRuntime) recomputeDeadline(ai int32) {
	r.statDl++
	r.gen[ai]++
	if len(r.expiry.e)+len(r.wakes.e) > 2*len(r.gen)+64 {
		r.expiry.compact(r.gen)
		r.wakes.compact(r.gen)
	}
	c := r.cn.loc(ai, r.s)
	s := r.s
	if c.inv >= 0 {
		ci := &r.cn.invs[c.inv]
		var d int64
		if ci.slow != nil {
			d = ci.slow.MaxDelay(&r.env, r.running)
		} else {
			d = r.atomsMaxDelay(ci.atoms)
		}
		if d != expr.NoBound {
			r.expiry.push(s.Time+d, ai, r.gen[ai])
			r.statPush++
		}
	}
	wake := expr.NoBound
	for _, i := range r.wakeEdges[ai] {
		ce := &c.edges[i]
		if d := r.cn.wakers[ce.waker].NextEnable(&r.env, r.running); d >= 1 && d < wake {
			wake = d
		}
	}
	if wake != expr.NoBound {
		r.wakes.push(s.Time+wake, ai, r.gen[ai])
		r.statPush++
	}
	r.dlDirty[ai] = false
}

// atomsMaxDelay mirrors expr.Invariant.MaxDelay over the flattened atoms,
// with the constant-bound fast path.
func (r *compiledRuntime) atomsMaxDelay(atoms []catom) int64 {
	d := expr.NoBound
	for i := range atoms {
		a := &atoms[i]
		if a.kind == aFree || r.stopped[a.clock] {
			continue
		}
		b := a.k
		if a.kind == aProgBound {
			b = a.prog.EvalInt(r.s.Vars, r.s.Clocks, r.regs)
		}
		room := b - r.s.Clocks[a.clock]
		if a.strict {
			room--
		}
		if room < d {
			d = room
		}
	}
	return d
}

// atomsHold mirrors expr.Invariant.Holds over the flattened atoms.
func (r *compiledRuntime) atomsHold(atoms []catom) bool {
	for i := range atoms {
		a := &atoms[i]
		if a.kind == aFree {
			if !a.prog.EvalBool(r.s.Vars, r.s.Clocks, r.regs) {
				return false
			}
			continue
		}
		b := a.k
		if a.kind == aProgBound {
			b = a.prog.EvalInt(r.s.Vars, r.s.Clocks, r.regs)
		}
		c := r.s.Clocks[a.clock]
		if a.strict {
			if c >= b {
				return false
			}
		} else if c > b {
			return false
		}
	}
	return true
}

// fire applies tr through the compiled form (bytecode updates, flattened
// invariants) and maintains the caches. Error construction routes through
// the shared Network helpers, so messages are byte-identical to net.Fire's.
func (r *compiledRuntime) fire(tr *Transition) error {
	if err := r.fireApply(tr); err != nil {
		return err
	}
	r.afterFire(tr)
	return nil
}

// fireApply performs the state mutation of tr: phase 1 moves every
// participant and runs its update, phase 2 checks every participant's target
// invariant — the same two-phase structure as Network.Fire.
func (r *compiledRuntime) fireApply(tr *Transition) error {
	s := r.s
	r.oldLocs = r.oldLocs[:0]
	for _, p := range tr.Parts {
		r.oldLocs = append(r.oldLocs, s.Locs[p.Aut])
	}
	for _, p := range tr.Parts {
		e := &r.net.Automata[p.Aut].Edges[p.Edge]
		s.Locs[p.Aut] = e.Dst
		if ui := r.cn.updOf[p.Aut][p.Edge]; ui >= 0 {
			if err := r.applyUpdate(tr, p, &r.cn.updates[ui]); err != nil {
				return err
			}
		}
	}
	for _, p := range tr.Parts {
		c := r.cn.loc(int32(p.Aut), s)
		if c.inv < 0 {
			continue
		}
		holds, err := r.invHolds(&r.cn.invs[c.inv], tr, p)
		if err != nil {
			return err
		}
		if !holds {
			return r.net.invariantViolationError(s, tr, p)
		}
	}
	return nil
}

func (r *compiledRuntime) applyUpdate(tr *Transition, p Part, cu *cupdate) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = r.net.convertUpdatePanic(r.s, tr, p, rec)
		}
	}()
	if cu.prog != nil {
		cu.prog.Exec(r.s.Vars, r.s.Clocks, r.regs, r.cn.domains)
	} else {
		cu.slow.Apply(&r.env)
	}
	return nil
}

func (r *compiledRuntime) invHolds(ci *cinv, tr *Transition, p Part) (holds bool, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			holds = false
			err = r.net.convertInvariantPanic(r.s, tr, p, rec)
		}
	}()
	if ci.slow != nil {
		return ci.slow.Holds(&r.env), nil
	}
	return r.atomsHold(ci.atoms), nil
}

// afterFire maintains the caches for a firing of tr that fireApply applied,
// dirtying both planes for participants and for readers of everything the
// transition wrote.
func (r *compiledRuntime) afterFire(tr *Transition) {
	s := r.s
	for i, p := range tr.Parts {
		r.markEn(int32(p.Aut))
		r.markDl(int32(p.Aut))
		if old, now := r.oldLocs[i], s.Locs[p.Aut]; old != now {
			r.locChanged(p.Aut, old, now)
		}
		if r.cn.writeUnknown[p.Aut][p.Edge] {
			r.dirtyAllBoth()
			continue
		}
		for _, v := range r.cn.writeVars[p.Aut][p.Edge] {
			r.markBoth(r.cn.varReaders[v])
		}
		for _, c := range r.cn.writeClocks[p.Aut][p.Edge] {
			r.markBoth(r.cn.clockReaders[c])
		}
	}
}

// locChanged maintains committed count, stopped-clock counters and the
// clock-sensitive set across a location change, dirtying both planes of the
// readers of any clock whose rate flipped.
func (r *compiledRuntime) locChanged(ai int, old, now sa.LocID) {
	a := r.net.Automata[ai]
	lold, lnew := &a.Locations[old], &a.Locations[now]
	if lold.Committed != lnew.Committed {
		if lnew.Committed {
			r.committedCount++
		} else {
			r.committedCount--
		}
	}
	for _, c := range lold.Stopped {
		r.stopCount[c]--
		if r.stopCount[c] == 0 {
			r.stopped[c] = false
			r.markBoth(r.cn.clockReaders[c])
		}
	}
	for _, c := range lnew.Stopped {
		r.stopCount[c]++
		if r.stopCount[c] == 1 {
			r.stopped[c] = true
			r.markBoth(r.cn.clockReaders[c])
		}
	}
	base := r.cn.locBase[ai]
	so := r.cn.locs[base+int32(old)].clockSensitive
	sn := r.cn.locs[base+int32(now)].clockSensitive
	if so != sn {
		if sn {
			r.clockSens.insert(int32(ai))
		} else {
			r.clockSens.remove(int32(ai))
		}
	}
}

// advance moves time forward by d (admissible per the last delayBound).
// Clock-sensitive automata go enabled-dirty; only automata with volatile
// wakers go deadline-dirty, because expression-guard wake points and
// invariant expiries are stored as absolute times that a uniform advance
// does not move.
func (r *compiledRuntime) advance(d int64) error {
	if len(r.cn.alwaysDirty) > 0 {
		// Opaque guards or invariants present: use the checked path.
		if err := r.net.Advance(r.s, d); err != nil {
			return err
		}
	} else {
		s := r.s
		for c := range s.Clocks {
			if !r.stopped[c] {
				s.Clocks[c] += d
			}
		}
		s.Time += d
	}
	for _, ai := range r.clockSens.list {
		r.markEn(ai)
	}
	for _, ai := range r.volatileWake.list {
		r.markDl(ai)
	}
	return nil
}

// flushStats drains the accumulated counters into the probe; nil probe is a
// no-op (the stat fields then just grow unread).
func (r *compiledRuntime) flushStats() {
	p := r.probe
	if p == nil {
		return
	}
	r.guards.flush(p)
	if r.statPush > 0 {
		p.HeapPushes.Add(r.statPush)
		r.statPush = 0
	}
	if r.statDl > 0 {
		p.DeadlineRecomputes.Add(r.statDl)
		r.statDl = 0
	}
	if r.statUnchanged > 0 {
		p.EnabledUnchanged.Add(r.statUnchanged)
		r.statUnchanged = 0
	}
	if r.statFirst > 0 {
		p.FirstFast.Add(r.statFirst)
		r.statFirst = 0
	}
	if n := r.expiry.pops + r.wakes.pops; n > 0 {
		p.HeapPops.Add(n)
		r.expiry.pops, r.wakes.pops = 0, 0
	}
	if n := r.expiry.stale + r.wakes.stale; n > 0 {
		p.HeapStale.Add(n)
		r.expiry.stale, r.wakes.stale = 0, 0
	}
}
