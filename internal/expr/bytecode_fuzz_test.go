package expr

import (
	"fmt"
	"testing"
)

// treeGen deterministically grows resolved, well-typed expression trees
// from a byte stream, so the fuzzer explores tree shapes rather than
// parser input. The vocabulary matches testScope: vars x(0), y(1),
// arr(2..4), clocks t(0), u(1).
type treeGen struct {
	data []byte
	pos  int
}

func (g *treeGen) next() byte {
	if g.pos >= len(g.data) {
		g.pos++
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

func (g *treeGen) intNode(depth int) Node {
	b := g.next()
	if depth <= 0 {
		switch b % 3 {
		case 0:
			return &IntLit{Val: int64(g.next()%17) - 5}
		case 1:
			return &VarRef{Index: int(g.next() % 5), Name: "v"}
		default:
			return &ClockRef{Index: int(g.next() % 2), Name: "c"}
		}
	}
	switch b % 8 {
	case 0:
		return &IntLit{Val: int64(g.next()%17) - 5}
	case 1:
		return &VarRef{Index: int(g.next() % 5), Name: "v"}
	case 2:
		return &ClockRef{Index: int(g.next() % 2), Name: "c"}
	case 3:
		return &DynVarRef{Base: 2, Len: 3, Index: g.intNode(depth - 1), Name: "arr"}
	case 4:
		return &Unary{Op: OpNeg, X: g.intNode(depth - 1)}
	case 5:
		ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return &Binary{Op: ops[g.next()%5], X: g.intNode(depth - 1), Y: g.intNode(depth - 1)}
	case 6:
		return &Cond{C: g.boolNode(depth - 1), A: g.intNode(depth - 1), B: g.intNode(depth - 1)}
	default:
		return &VarRef{Index: int(g.next() % 5), Name: "v"}
	}
}

func (g *treeGen) boolNode(depth int) Node {
	b := g.next()
	if depth <= 0 {
		return &BoolLit{Val: b%2 == 0}
	}
	switch b % 7 {
	case 0:
		return &BoolLit{Val: g.next()%2 == 0}
	case 1:
		ops := []Op{OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE}
		return &Binary{Op: ops[g.next()%6], X: g.intNode(depth - 1), Y: g.intNode(depth - 1)}
	case 2:
		return &Unary{Op: OpNot, X: g.boolNode(depth - 1)}
	case 3:
		return &Binary{Op: OpAnd, X: g.boolNode(depth - 1), Y: g.boolNode(depth - 1)}
	case 4:
		return &Binary{Op: OpOr, X: g.boolNode(depth - 1), Y: g.boolNode(depth - 1)}
	case 5:
		ops := []Op{OpEQ, OpNE}
		return &Binary{Op: ops[g.next()%2], X: g.boolNode(depth - 1), Y: g.boolNode(depth - 1)}
	default:
		return &Cond{C: g.boolNode(depth - 1), A: g.boolNode(depth - 1), B: g.boolNode(depth - 1)}
	}
}

// run evaluates f, mapping a *RuntimeError panic to its message so outcomes
// compare as plain strings ("ok:<value>" or "panic:<message>").
func runOutcome(f func() string) (out string) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*RuntimeError)
			if !ok {
				panic(r)
			}
			out = "panic:" + re.Error()
		}
	}()
	return "ok:" + f()
}

// FuzzBytecodeVM holds the bytecode VM to the tree walker's semantics: any
// resolved, well-typed tree must produce the identical value — or the
// identical *RuntimeError — through both, including the evaluation order
// that decides which of several possible faults surfaces first.
func FuzzBytecodeVM(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0xff, 0x00, 0x5a, 0x13, 0x44, 0x91, 0x02, 0x77})
	f.Add([]byte("divide and conquer"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &treeGen{data: data}
		wantBool := g.next()%2 == 0
		depth := int(g.next()%4) + 1
		vars := make([]int64, 5)
		clocks := make([]int64, 2)
		for i := range vars {
			vars[i] = int64(g.next()%21) - 10
		}
		for i := range clocks {
			clocks[i] = int64(g.next() % 16)
		}
		env := testEnv{vars: vars, clocks: clocks}

		if wantBool {
			n := g.boolNode(depth)
			prog := CompileBoolProg(n)
			if prog == nil {
				t.Fatalf("well-typed bool tree rejected: %s", n)
			}
			regs := make([]int64, prog.NumRegs())
			w := runOutcome(func() string { return fmt.Sprint(n.EvalBool(env)) })
			v := runOutcome(func() string { return fmt.Sprint(prog.EvalBool(vars, clocks, regs)) })
			if w != v {
				t.Errorf("bool tree %s: tree=%s vm=%s", n, w, v)
			}
		} else {
			n := g.intNode(depth)
			prog := CompileIntProg(n)
			if prog == nil {
				t.Fatalf("well-typed int tree rejected: %s", n)
			}
			regs := make([]int64, prog.NumRegs())
			w := runOutcome(func() string { return fmt.Sprint(n.EvalInt(env)) })
			v := runOutcome(func() string { return fmt.Sprint(prog.EvalInt(vars, clocks, regs)) })
			if w != v {
				t.Errorf("int tree %s: tree=%s vm=%s", n, w, v)
			}
		}
	})
}
