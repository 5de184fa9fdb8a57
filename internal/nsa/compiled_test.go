package nsa

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/sa"
)

// stopResumeNet builds a stopwatch scenario: W's clock c runs toward an
// invariant bound c <= 10 with a completion guard c == 10, while driver D
// pauses c (location with Stops) during [3,5). The deadline heap must track
// the expiry moving from t=10 to t=12 across the stop and resume.
func stopResumeNet(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	c := b.Clock("c")
	d := b.Clock("d")
	pause := b.Chan("pause")
	resume := b.Chan("resume")
	sc := b.Scope()

	wb := sa.NewBuilder("W")
	wb.OwnClock(c)
	run := wb.Loc("Run", sa.WithInvariant(mustInv(t, "c <= 10", sc)))
	paused := wb.Loc("Paused", sa.Stops(c))
	done := wb.Loc("Done")
	wb.Init(run)
	wb.Edge(run, done, sa.NewExprGuard(expr.MustParseResolve("c == 10", sc, expr.TypeBool)), sa.None, nil)
	wb.RecvEdge(run, paused, nil, pause, nil)
	wb.RecvEdge(paused, run, nil, resume, nil)

	db := sa.NewBuilder("D")
	db.OwnClock(d)
	l0 := db.Loc("L0", sa.WithInvariant(mustInv(t, "d <= 3", sc)))
	l1 := db.Loc("L1", sa.WithInvariant(mustInv(t, "d <= 5", sc)))
	l2 := db.Loc("L2")
	db.Init(l0)
	db.SendEdge(l0, l1, sa.NewExprGuard(expr.MustParseResolve("d == 3", sc, expr.TypeBool)), pause, nil)
	db.SendEdge(l1, l2, sa.NewExprGuard(expr.MustParseResolve("d == 5", sc, expr.TypeBool)), resume, nil)

	b.Add(wb.MustBuild())
	b.Add(db.MustBuild())
	return b.MustBuild()
}

func TestRuntimeDeadlineHeapStopResume(t *testing.T) {
	net := stopResumeNet(t)
	// CheckEngine verifies the runtime's candidate sets and delay bounds
	// against the naive enumeration at every step.
	eng := NewEngine(net, Options{Horizon: 100, CheckEngine: true})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent {
		t.Errorf("result = %+v, want quiescent", res)
	}
	s := eng.State()
	if s.Time != 12 {
		t.Errorf("final time = %d, want 12 (2 units spent paused)", s.Time)
	}
	if got := net.Automata[0].LocationName(s.Locs[0]); got != "Done" {
		t.Errorf("W ended in %s, want Done", got)
	}
}

// TestRuntimeDelayBoundsStopResume drives the compiled runtime directly and
// compares its delay bounds against the naive DelayBound at each phase of
// the stop/resume schedule.
func TestRuntimeDelayBoundsStopResume(t *testing.T) {
	net := stopResumeNet(t)
	s := net.InitialState()
	rt := newCompiledRuntime(net, s, nil)

	check := func(stage string, wantMax int64) {
		t.Helper()
		cands := rt.enabled(nil)
		if len(cands) != 0 {
			t.Fatalf("%s: unexpected candidates %v", stage, cands)
		}
		info := rt.delayBound()
		naive := net.DelayBound(s)
		if info != naive {
			t.Fatalf("%s: runtime delay %+v != naive %+v", stage, info, naive)
		}
		if info.Max != wantMax {
			t.Fatalf("%s: Max = %d, want %d", stage, info.Max, wantMax)
		}
	}
	fire := func(stage string) {
		t.Helper()
		cands := rt.enabled(nil)
		if len(cands) != 1 {
			t.Fatalf("%s: candidates = %v, want exactly one", stage, cands)
		}
		if err := rt.fire(&cands[0]); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	advance := func(d int64) {
		t.Helper()
		if err := rt.advance(d); err != nil {
			t.Fatal(err)
		}
	}

	check("initial", 3) // D's d <= 3 binds before W's c <= 10
	advance(3)
	fire("pause") // c stops at 3; W's expiry must stretch to NoBound's backstop via D
	check("paused", 2)
	advance(2)
	fire("resume") // c resumes at 3, expiry becomes t=5+(10-3)=12
	check("resumed", 7)
	advance(7)
	fire("complete")
	check("final", expr.NoBound)
}

func TestRandomChooserEmptyCandidates(t *testing.T) {
	ch := RandomChooser{Rng: rand.New(rand.NewSource(1))}
	if got := ch.Choose(nil, nil); got != -1 {
		t.Errorf("Choose(empty) = %d, want -1", got)
	}
}

// TestRandomChooserDeadlockDiagnosis: a network that deadlocks must surface
// the structured deadlock error with RandomChooser too (historically the
// chooser panicked before the engine could diagnose the empty set).
func TestRandomChooserDeadlockDiagnosis(t *testing.T) {
	b := NewBuilder()
	ck := b.Clock("t")
	sc := b.Scope()
	ab := sa.NewBuilder("A")
	ab.OwnClock(ck)
	wait := ab.Loc("Wait", sa.WithInvariant(mustInv(t, "t <= 2", sc)))
	ab.Init(wait)
	// No edge discharges the invariant: timelock at t=2.
	b.Add(ab.MustBuild())
	net := b.MustBuild()

	eng := NewEngine(net, Options{Horizon: 10, Chooser: RandomChooser{Rng: rand.New(rand.NewSource(7))}})
	_, err := eng.Run()
	var dl *DeadlockError
	if !asDeadlock(err, &dl) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if !strings.Contains(err.Error(), "invariant bounds delay") {
		t.Errorf("err = %v", err)
	}
}

func asDeadlock(err error, out **DeadlockError) bool {
	if de, ok := err.(*DeadlockError); ok {
		*out = de
		return true
	}
	return false
}

// TestCheckEngineUrgentBroadcast exercises the runtime's urgent and
// broadcast handling (urgent broadcast sender, multi-receiver cartesian
// products, committed relays) under per-step differential checking.
func TestCheckEngineUrgentBroadcast(t *testing.T) {
	b := NewBuilder()
	n1 := b.Var("n1", 0)
	ck := b.Clock("t")
	tick := b.BroadcastChan("tick")
	kick := b.UrgentBroadcastChan("kick")
	sc := b.Scope()

	sb := sa.NewBuilder("S")
	sb.OwnClock(ck)
	l0 := sb.Loc("L0", sa.WithInvariant(mustInv(t, "t <= 4", sc)))
	l1 := sb.Loc("L1", sa.Committed())
	l2 := sb.Loc("L2")
	sb.Init(l0)
	sb.SendEdge(l0, l1, sa.NewExprGuard(expr.MustParseResolve("t == 4", sc, expr.TypeBool)), tick, nil)
	sb.SendEdge(l1, l2, nil, kick, nil)

	mk := func(name string) *sa.Automaton {
		rb := sa.NewBuilder(name)
		idle := rb.Loc("Idle")
		got := rb.Loc("Got")
		fin := rb.Loc("Fin")
		rb.Init(idle)
		rb.RecvEdge(idle, got, nil, tick,
			&sa.ExprUpdate{Stmts: expr.MustParseResolveUpdate("n1 := n1 + 1", sc)})
		rb.RecvEdge(got, fin, nil, kick, nil)
		return rb.MustBuild()
	}
	b.Add(sb.MustBuild())
	b.Add(mk("R1"))
	b.Add(mk("R2"))
	net := b.MustBuild()

	eng := NewEngine(net, Options{Horizon: 50, CheckEngine: true})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent {
		t.Errorf("result = %+v", res)
	}
	if got := eng.State().Vars[n1]; got != 2 {
		t.Errorf("n1 = %d, want 2 (both receivers moved)", got)
	}
}

// TestOpaqueExprGuardParity: an expression guard the bytecode rejects (here
// one reaching an unresolved identifier) runs on the opaque tier, and both
// backends and the Enumerator must agree with the naive tree walk — the same
// run when short-circuiting keeps the identifier unevaluated, the same
// error when it is reached.
func TestOpaqueExprGuardParity(t *testing.T) {
	for _, c := range []struct {
		name    string
		x       int64
		wantErr string
	}{
		{"short-circuited", 1, ""},
		{"reached", 0, "unresolved identifier"},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder()
			b.Var("x", c.x)
			ck := b.Clock("t")
			sc := b.Scope()
			// (x > 0 || z) && t >= 2, with z left unresolved.
			g := &expr.Binary{Op: expr.OpAnd,
				X: &expr.Binary{Op: expr.OpOr,
					X: expr.MustParseResolve("x > 0", sc, expr.TypeBool),
					Y: &expr.Ident{Name: "z"}},
				Y: expr.MustParseResolve("t >= 2", sc, expr.TypeBool)}
			if expr.CompileBoolProg(g) != nil {
				t.Fatal("guard compiled to bytecode; the test needs an opaque one")
			}
			ab := sa.NewBuilder("A")
			ab.OwnClock(ck)
			l0 := ab.Loc("L0", sa.WithInvariant(mustInv(t, "t <= 5", sc)))
			l1 := ab.Loc("L1")
			ab.Init(l0)
			ab.Edge(l0, l1, sa.NewExprGuard(g), sa.None, nil)
			b.Add(ab.MustBuild())
			net := b.MustBuild()

			run := func(bk Backend) (string, *SyncTrace) {
				tr := &SyncTrace{}
				res, err := NewEngine(net, Options{Horizon: 20, Backend: bk, Listeners: []Listener{tr}}).Run()
				if err != nil {
					return err.Error(), tr
				}
				return fmt.Sprintf("%+v", res), tr
			}
			want, wantTr := run(BackendNaive)
			got, gotTr := run(BackendCompiled)
			if got != want || !reflect.DeepEqual(gotTr.Events, wantTr.Events) {
				t.Fatalf("compiled %q %v, naive %q %v", got, gotTr.Events, want, wantTr.Events)
			}
			if c.wantErr != "" && !strings.Contains(want, c.wantErr) {
				t.Fatalf("run = %q, want an error containing %q", want, c.wantErr)
			}
			if c.wantErr == "" && len(wantTr.Events) != 1 {
				t.Fatalf("run = %q with %d events, want the guarded edge to fire once", want, len(wantTr.Events))
			}

			s := net.InitialState()
			s.Clocks[ck] = 2
			enabled := func(f func() []Transition) (out string) {
				defer func() {
					if r := recover(); r != nil {
						out = fmt.Sprint("panic: ", r)
					}
				}()
				return fmt.Sprint(f())
			}
			wantEn := enabled(func() []Transition { return net.EnabledTransitions(s, nil) })
			gotEn := enabled(func() []Transition { return NewEnumerator(net).Enabled(s) })
			if gotEn != wantEn {
				t.Fatalf("Enumerator %s, naive %s", gotEn, wantEn)
			}
		})
	}
}
