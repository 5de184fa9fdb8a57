package nsa

import (
	"sort"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/sa"
)

// compiledNet is the one static form of a network, built once per Network
// by Builder.Build and shared, immutably, by every compiledRuntime and
// Enumerator over it. All per-location data lives in contiguous slices
// indexed by dense IDs assigned at build time (locBase[ai]+loc addresses a
// location, small integers address guard programs, updates and
// invariants). Guards compile into the cheapest evaluation tier that
// provably preserves the tree walker's semantics — inlined comparisons,
// expression bytecode, or the opaque interface path — and invariants
// flatten into atom arrays with a dedicated constant-bound fast path. The
// same pass inverts guard and invariant read sets into variable→reader and
// clock→reader lists and records each edge's write set, so the runtime can
// re-evaluate only the automata a fired transition may have affected.
type compiledNet struct {
	// locBase[ai] + int(loc) is the dense ID of location loc of automaton
	// ai, indexing locs.
	locBase []int32
	locs    []cloc

	progs   []*expr.Prog    // guard bytecode (gProg)
	cmps    []expr.CmpConst // flattened compare-const conjunctions (gCmpList)
	slows   []sa.Guard      // opaque guards (gOpaque), evaluated via the env
	wakers  []sa.Waker      // guard wake-up providers, referenced by cedge.waker
	updates []cupdate       // edge updates, referenced by updOf
	invs    []cinv          // location invariants, referenced by cloc.inv
	domains []expr.VarDomain

	// updOf[ai][ei] indexes updates for edge ei of automaton ai; -1 means no
	// update.
	updOf [][]int32

	prio    []int32 // per-automaton process priority
	maxPrio int32   // highest automaton priority in the network

	broadcast   []bool  // per channel
	urgentChans []int32 // urgent channel IDs, ascending

	// maxRegs is the largest register file any compiled program needs; a
	// runtime allocates one scratch slice of this length for all of them.
	maxRegs int

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

// cguardKind classifies how a guard is evaluated, cheapest first.
type cguardKind uint8

const (
	gTrue      cguardKind = iota // no guard
	gVarCmpK                     // vars[gidx] gop gk, inlined
	gClockCmpK                   // clocks[gidx] gop gk, inlined
	gCmpList                     // conjunction: cmps[gidx : gidx+gn], inlined loop
	gProg                        // bytecode: progs[gidx]
	gOpaque                      // interface: slows[gidx] via the env
)

// cloc is one location in dense form.
type cloc struct {
	edges     []cedge // outgoing edges, ascending edge index
	inv       int32   // invs index; -1 when trivially true
	committed bool
	// clockSensitive is true when some outgoing guard may change truth
	// value under a time advance; the runtime re-evaluates such automata
	// after every delay transition.
	clockSensitive bool
}

// cedge is one pre-classified outgoing edge.
type cedge struct {
	edge  int32 // edge index within the automaton
	ch    sa.ChanID
	dir   sa.SyncDir
	gkind cguardKind
	gop   expr.Op // comparison operator for gVarCmpK / gClockCmpK
	gidx  int32   // var/clock index, or cmps/progs/slows index, per gkind
	gn    int32   // conjunct count for gCmpList
	gk    int64   // comparison constant for gVarCmpK / gClockCmpK
	// waker indexes wakers when the guard can report a wake-up delay; -1
	// otherwise. volatileWaker marks wakers whose wake-up points are not
	// invariant under time advance (anything but ExprGuard's clock-atom
	// scan), forcing a deadline recompute after every delay transition.
	waker         int32
	volatileWaker bool
}

// cupdate is one edge update: bytecode when provably compilable, the
// interface fallback otherwise.
type cupdate struct {
	prog *expr.Prog
	slow sa.Update
}

// catomKind classifies flattened invariant atoms.
type catomKind uint8

const (
	aConstBound catomKind = iota // clock ≤/< K
	aProgBound                   // clock ≤/< prog(vars, clocks)
	aFree                        // clock-free boolean conjunct: prog
)

// catom is one flattened invariant atom.
type catom struct {
	kind   catomKind
	clock  int32
	strict bool
	k      int64      // aConstBound
	prog   *expr.Prog // aProgBound (int program), aFree (bool program)
}

// cinv is one location invariant: flattened atoms, or the interface
// fallback (slow non-nil, atoms nil) when some atom does not compile.
type cinv struct {
	atoms []catom
	slow  sa.Invariant
}

// compiled returns the network's compiled form. Builder.Build constructs it
// eagerly; the lazy fallback covers networks assembled without the builder
// (single-goroutine test helpers only — the fallback is not synchronized).
func (n *Network) compiled() *compiledNet {
	if n.cnet == nil {
		n.cnet = buildCompiledNet(n)
	}
	return n.cnet
}

func buildCompiledNet(n *Network) *compiledNet {
	cn := &compiledNet{
		locBase:      make([]int32, len(n.Automata)),
		domains:      make([]expr.VarDomain, len(n.Vars)),
		updOf:        make([][]int32, len(n.Automata)),
		prio:         make([]int32, len(n.Automata)),
		broadcast:    make([]bool, len(n.Chans)),
		varReaders:   make([][]int32, len(n.Vars)),
		clockReaders: make([][]int32, len(n.Clocks)),
		writeVars:    make([][][]int32, len(n.Automata)),
		writeClocks:  make([][][]int32, len(n.Automata)),
		writeUnknown: make([][]bool, len(n.Automata)),
	}
	for i, v := range n.Vars {
		cn.domains[i] = expr.VarDomain{Name: v.Name, Min: v.Min, Max: v.Max, Bounded: v.HasBounds}
	}
	for ch, c := range n.Chans {
		cn.broadcast[ch] = c.Broadcast
		if c.Urgent {
			cn.urgentChans = append(cn.urgentChans, int32(ch))
		}
	}
	for ai, a := range n.Automata {
		cn.prio[ai] = int32(a.Priority)
		if ai == 0 || cn.prio[ai] > cn.maxPrio {
			cn.maxPrio = cn.prio[ai]
		}

		cn.updOf[ai] = make([]int32, len(a.Edges))
		cn.writeVars[ai] = make([][]int32, len(a.Edges))
		cn.writeClocks[ai] = make([][]int32, len(a.Edges))
		cn.writeUnknown[ai] = make([]bool, len(a.Edges))
		for ei := range a.Edges {
			u := a.Edges[ei].Update
			cn.updOf[ai][ei] = cn.addUpdate(u)
			wv, wc, ok := sa.UpdateWrites(u, nil, nil)
			if !ok {
				cn.writeUnknown[ai][ei] = true
				continue
			}
			cn.writeVars[ai][ei] = sortedUnique32(wv)
			cn.writeClocks[ai][ei] = sortedUnique32(wc)
		}

		// readV/readC accumulate the read footprint of automaton ai; an
		// unknown footprint can read anything, including clocks, so it makes
		// every location of ai clock-sensitive below.
		var readV, readC []int
		unknown := false
		cn.locBase[ai] = int32(len(cn.locs))
		for li := range a.Locations {
			loc := &a.Locations[li]
			c := cloc{inv: cn.addInvariant(loc.Invariant), committed: loc.Committed}
			if loc.Invariant != nil {
				if fi, ok := loc.Invariant.(*expr.Invariant); ok {
					readV, readC = fi.AppendDeps(readV, readC)
				} else {
					unknown = true
				}
			}
			for _, ei := range a.EdgesFrom(sa.LocID(li)) {
				g := a.Edges[ei].Guard
				c.edges = append(c.edges, cn.compileEdge(a, ei))
				before := len(readC)
				var ok bool
				readV, readC, ok = sa.GuardReads(g, readV, readC)
				if !ok {
					unknown = true
				}
				if gf, isFn := g.(*sa.GuardFunc); len(readC) > before || (isFn && gf.NextEnableF != nil) {
					c.clockSensitive = true
				}
			}
			cn.locs = append(cn.locs, c)
		}

		if unknown {
			cn.alwaysDirty = append(cn.alwaysDirty, int32(ai))
			for li := range a.Locations {
				cn.locs[cn.locBase[ai]+int32(li)].clockSensitive = true
			}
		}
		for _, v := range sortedUnique32(readV) {
			cn.varReaders[v] = append(cn.varReaders[v], int32(ai))
		}
		for _, c := range sortedUnique32(readC) {
			cn.clockReaders[c] = append(cn.clockReaders[c], int32(ai))
		}
	}
	return cn
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

func (cn *compiledNet) trackRegs(p *expr.Prog) {
	if p != nil && p.NumRegs() > cn.maxRegs {
		cn.maxRegs = p.NumRegs()
	}
}

// compileEdge classifies and compiles the guard of edge ei, picking the
// cheapest evaluation tier it can prove correct: inlined var/clock-vs-const
// comparison, bytecode, or the opaque interface path.
func (cn *compiledNet) compileEdge(a *sa.Automaton, ei int) cedge {
	e := &a.Edges[ei]
	ce := cedge{edge: int32(ei), ch: sa.NoChan, waker: -1}
	if e.Sync.Dir != sa.NoSync {
		ce.dir = e.Sync.Dir
		ce.ch = e.Sync.Chan
	}
	switch g := e.Guard.(type) {
	case nil:
		ce.gkind = gTrue
	case *sa.ExprGuard:
		if isClock, idx, op, k, ok := expr.MatchCmpConst(g.Node); ok {
			if isClock {
				ce.gkind = gClockCmpK
			} else {
				ce.gkind = gVarCmpK
			}
			ce.gidx, ce.gop, ce.gk = int32(idx), op, k
		} else if list, ok := expr.MatchCmpList(g.Node, cn.cmps); ok {
			ce.gkind = gCmpList
			ce.gidx = int32(len(cn.cmps))
			ce.gn = int32(len(list) - len(cn.cmps))
			cn.cmps = list
		} else if p := expr.CompileBoolProg(g.Node); p != nil {
			ce.gkind = gProg
			ce.gidx = int32(len(cn.progs))
			cn.progs = append(cn.progs, p)
			cn.trackRegs(p)
		} else {
			// Not provably well-typed: the tree walker raises the
			// canonical *RuntimeError.
			ce.gkind = gOpaque
			ce.gidx = int32(len(cn.slows))
			cn.slows = append(cn.slows, g)
		}
		if !g.ClockFree() {
			ce.waker = int32(len(cn.wakers))
			cn.wakers = append(cn.wakers, g)
		}
	default:
		ce.gkind = gOpaque
		ce.gidx = int32(len(cn.slows))
		cn.slows = append(cn.slows, g)
		if w, ok := g.(sa.Waker); ok {
			if gf, isFn := g.(*sa.GuardFunc); !isFn || gf.NextEnableF != nil {
				ce.waker = int32(len(cn.wakers))
				cn.wakers = append(cn.wakers, w)
				ce.volatileWaker = true
			}
		}
	}
	return ce
}

// evalGuard evaluates one pre-classified guard against the raw state
// arrays, cheapest tier first; regs is the caller's register file (maxRegs
// long) and env the environment opaque guards read through. It is the one
// guard evaluation of both the compiled runtime and the Enumerator.
func (cn *compiledNet) evalGuard(ce *cedge, vars, clocks, regs []int64, env expr.Env) bool {
	switch ce.gkind {
	case gTrue:
		return true
	case gVarCmpK:
		return cmpConst(vars[ce.gidx], ce.gop, ce.gk)
	case gClockCmpK:
		return cmpConst(clocks[ce.gidx], ce.gop, ce.gk)
	case gCmpList:
		for i := ce.gidx; i < ce.gidx+ce.gn; i++ {
			c := &cn.cmps[i]
			v := vars
			if c.IsClock {
				v = clocks
			}
			if !cmpConst(v[c.Idx], c.Op, c.K) {
				return false
			}
		}
		return true
	case gProg:
		return cn.progs[ce.gidx].EvalBool(vars, clocks, regs)
	default: // gOpaque
		return guardHolds(cn.slows[ce.gidx], env)
	}
}

func cmpConst(v int64, op expr.Op, k int64) bool {
	switch op {
	case expr.OpLT:
		return v < k
	case expr.OpLE:
		return v <= k
	case expr.OpGT:
		return v > k
	case expr.OpGE:
		return v >= k
	case expr.OpEQ:
		return v == k
	default: // OpNE
		return v != k
	}
}

// guardCounts tallies guard evaluations by tier between probe flushes.
type guardCounts struct{ evals, bytecode, opaque int64 }

func (g *guardCounts) count(k cguardKind) {
	g.evals++
	switch k {
	case gVarCmpK, gClockCmpK, gCmpList, gProg:
		g.bytecode++
	case gOpaque:
		g.opaque++
	}
}

// flush drains the tallies into p.
func (g *guardCounts) flush(p *obs.Probe) {
	if g.evals == 0 {
		return
	}
	p.GuardEvals.Add(g.evals)
	p.GuardCompiled.Add(g.evals - g.opaque)
	p.GuardBytecode.Add(g.bytecode)
	p.GuardOpaque.Add(g.opaque)
	*g = guardCounts{}
}

// addUpdate compiles an edge update into the updates table, returning its
// index (-1 for no update). ExprUpdate statement lists compile to bytecode
// when provably well-typed; everything else keeps the interface path.
func (cn *compiledNet) addUpdate(u sa.Update) int32 {
	if u == nil {
		return -1
	}
	cu := cupdate{slow: u}
	if eu, ok := u.(*sa.ExprUpdate); ok {
		if p := expr.CompileUpdateProg(eu.Stmts); p != nil {
			cu.prog = p
			cn.trackRegs(p)
		}
	}
	cn.updates = append(cn.updates, cu)
	return int32(len(cn.updates) - 1)
}

// addInvariant flattens a location invariant into the invs table, returning
// its index (-1 for trivially true). Expression invariants flatten to atom
// arrays — constant clock bounds become immediate k comparisons, the common
// case in the component library, and other bounds and clock-free atoms
// compile to bytecode. An atom the bytecode rejects, or any other invariant
// implementation, puts the whole invariant on the interface path.
func (cn *compiledNet) addInvariant(inv sa.Invariant) int32 {
	if inv == nil {
		return -1
	}
	ci := cinv{slow: inv}
	if fi, ok := inv.(*expr.Invariant); ok {
		if atoms, ok := cn.compileAtoms(fi.AtomList()); ok {
			ci = cinv{atoms: atoms}
		}
	}
	cn.invs = append(cn.invs, ci)
	return int32(len(cn.invs) - 1)
}

// compileAtoms flattens normalized invariant atoms, reporting false when
// some atom does not compile to bytecode.
func (cn *compiledNet) compileAtoms(atoms []expr.InvariantAtom) ([]catom, bool) {
	out := make([]catom, 0, len(atoms))
	for _, a := range atoms {
		ca := catom{kind: aProgBound, clock: int32(a.Clock), strict: a.Strict}
		switch lit, isLit := a.Bound.(*expr.IntLit); {
		case a.Clock < 0:
			ca.kind = aFree
			ca.prog = expr.CompileBoolProg(a.Free)
		case isLit:
			ca.kind = aConstBound
			ca.k = lit.Val
		default:
			ca.prog = expr.CompileIntProg(a.Bound)
		}
		if ca.kind != aConstBound && ca.prog == nil {
			return nil, false
		}
		cn.trackRegs(ca.prog)
		out = append(out, ca)
	}
	return out, true
}

// loc returns the dense-form location automaton ai occupies in s.
func (cn *compiledNet) loc(ai int32, s *State) *cloc {
	return &cn.locs[cn.locBase[ai]+int32(s.Locs[ai])]
}
