package nsa

import (
	"sort"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/sa"
)

// netIndex is the static interpretation index of a network, built once per
// Network on first use and shared by every engine and enumerator over it.
// It pre-classifies each location's outgoing edges by synchronization
// channel and direction, compiles expression guards into closures, and
// inverts guard/invariant read sets into variable→reader and clock→reader
// lists so the incremental engine runtime can re-evaluate only the automata
// a fired transition may have affected.
type netIndex struct {
	// locs[ai][li] describes location li of automaton ai.
	locs [][]locInfo

	// varReaders[v] lists (ascending) the automata with a guard or
	// invariant reading variable v somewhere.
	varReaders [][]int32
	// clockReaders[c] lists the automata with a guard, waker or invariant
	// depending on clock c: they must be re-evaluated when c is reset or its
	// rate changes.
	clockReaders [][]int32

	// writeVars[ai][ei] / writeClocks[ai][ei] are the variables and clocks
	// edge ei of automaton ai may assign; writeUnknown marks edges with an
	// opaque update and no declared footprint (firing them dirties every
	// automaton).
	writeVars    [][][]int32
	writeClocks  [][][]int32
	writeUnknown [][]bool

	// alwaysDirty lists automata with some guard or invariant of unknown
	// footprint; the runtime re-evaluates them on every step.
	alwaysDirty []int32
}

// locInfo is the indexed form of one location of one automaton.
type locInfo struct {
	// edges lists the outgoing edges in ascending edge-index order, with
	// compiled guards.
	edges []edgeInfo
	// committed mirrors sa.Location.Committed.
	committed bool
	// clockSensitive is true when some outgoing guard may change truth
	// value under a time advance; the runtime re-evaluates such automata
	// after every delay transition.
	clockSensitive bool
}

// edgeInfo is one pre-classified outgoing edge.
type edgeInfo struct {
	edge int32
	dir  sa.SyncDir
	ch   sa.ChanID // NoChan for internal edges
	// fast is the compiled guard; nil means "evaluate slow via the env".
	fast expr.BoolFn
	slow sa.Guard // nil means trivially true (only when fast is also nil)
}

// evalGuard evaluates the edge guard against the raw state arrays, falling
// back to the interface path for opaque guards.
func (e *edgeInfo) evalGuard(vars, clocks []int64, env expr.Env) bool {
	if e.fast != nil {
		return e.fast(vars, clocks)
	}
	return guardHolds(e.slow, env)
}

// index returns the network's interpretation index. Builder.Build constructs
// it eagerly; the lazy fallback covers networks assembled without the builder
// (single-goroutine test helpers only — the fallback is not synchronized).
func (n *Network) index() *netIndex {
	if n.idx == nil {
		n.idx = buildIndex(n)
	}
	return n.idx
}

func buildIndex(n *Network) *netIndex {
	idx := &netIndex{
		locs:         make([][]locInfo, len(n.Automata)),
		varReaders:   make([][]int32, len(n.Vars)),
		clockReaders: make([][]int32, len(n.Clocks)),
		writeVars:    make([][][]int32, len(n.Automata)),
		writeClocks:  make([][][]int32, len(n.Automata)),
		writeUnknown: make([][]bool, len(n.Automata)),
	}
	for ai, a := range n.Automata {
		var readV, readC []int // accumulated read footprint of automaton ai
		unknown := false

		// Per-edge write sets.
		idx.writeVars[ai] = make([][]int32, len(a.Edges))
		idx.writeClocks[ai] = make([][]int32, len(a.Edges))
		idx.writeUnknown[ai] = make([]bool, len(a.Edges))
		for ei := range a.Edges {
			wv, wc, ok := sa.UpdateWrites(a.Edges[ei].Update, nil, nil)
			if !ok {
				idx.writeUnknown[ai][ei] = true
				continue
			}
			idx.writeVars[ai][ei] = sortedUnique32(wv)
			idx.writeClocks[ai][ei] = sortedUnique32(wc)
		}

		// Per-location classified edges and invariant info.
		idx.locs[ai] = make([]locInfo, len(a.Locations))
		for li := range a.Locations {
			loc := &a.Locations[li]
			info := &idx.locs[ai][li]
			info.committed = loc.Committed
			if loc.Invariant != nil {
				if fi, ok := loc.Invariant.(*expr.Invariant); ok {
					readV, readC = fi.AppendDeps(readV, readC)
				} else {
					unknown = true
					info.clockSensitive = true
				}
			}
			for _, ei := range a.EdgesFrom(sa.LocID(li)) {
				e := &a.Edges[ei]
				ef := edgeInfo{edge: int32(ei), dir: e.Sync.Dir, ch: sa.NoChan}
				if e.Sync.Dir != sa.NoSync {
					ef.ch = e.Sync.Chan
				}
				switch g := e.Guard.(type) {
				case nil:
					// Trivially true.
				case *sa.ExprGuard:
					ef.fast = expr.CompileBool(g.Node)
					ef.slow = g
					before := len(readC)
					readV = expr.Vars(g.Node, readV)
					readC = expr.Clocks(g.Node, readC)
					if len(readC) > before {
						info.clockSensitive = true
					}
				case *sa.GuardFunc:
					ef.slow = g
					before := len(readC)
					v, c, ok := sa.GuardReads(g, readV, readC)
					readV, readC = v, c
					if !ok {
						unknown = true
						info.clockSensitive = true
					} else if len(readC) > before {
						info.clockSensitive = true
					}
					if g.NextEnableF != nil {
						info.clockSensitive = true
					}
				default:
					ef.slow = g
					unknown = true
					info.clockSensitive = true
				}
				info.edges = append(info.edges, ef)
			}
		}

		if unknown {
			idx.alwaysDirty = append(idx.alwaysDirty, int32(ai))
			// An unknown guard can read anything, including clocks: make the
			// automaton clock-sensitive everywhere so delay transitions also
			// re-evaluate it.
			for li := range idx.locs[ai] {
				idx.locs[ai][li].clockSensitive = true
			}
		}
		for _, v := range sortedUnique32(readV) {
			idx.varReaders[v] = append(idx.varReaders[v], int32(ai))
		}
		for _, c := range sortedUnique32(readC) {
			idx.clockReaders[c] = append(idx.clockReaders[c], int32(ai))
		}
	}
	return idx
}

// sortedUnique32 sorts xs, drops duplicates and converts to int32.
func sortedUnique32(xs []int) []int32 {
	if len(xs) == 0 {
		return nil
	}
	sort.Ints(xs)
	out := make([]int32, 0, len(xs))
	for i, x := range xs {
		if i > 0 && x == xs[i-1] {
			continue
		}
		out = append(out, int32(x))
	}
	return out
}
