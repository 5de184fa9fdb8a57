package expr

import "fmt"

// Symbol describes what a name resolves to.
type Symbol struct {
	Kind  SymbolKind
	Index int   // global variable/clock index (element 0 for arrays)
	Len   int   // array length; 0 for scalars
	Const int64 // value for SymConst
}

// SymbolKind enumerates resolvable entity kinds.
type SymbolKind uint8

// Symbol kinds.
const (
	SymVar SymbolKind = iota
	SymClock
	SymConst
)

// Scope resolves names to symbols. Implementations are provided by the
// network builder (global variable/clock tables) and by the XTA front end
// (template parameters and local declarations shadowing globals).
type Scope interface {
	Lookup(name string) (Symbol, bool)
}

// MapScope is a Scope backed by a map, convenient for tests and small models.
type MapScope map[string]Symbol

// Lookup implements Scope.
func (m MapScope) Lookup(name string) (Symbol, bool) {
	s, ok := m[name]
	return s, ok
}

// ResolveError reports a name-resolution or type error.
type ResolveError struct {
	Name string
	Msg  string
}

func (e *ResolveError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("expr: %s: %s", e.Name, e.Msg)
	}
	return "expr: " + e.Msg
}

func resErrf(name, format string, args ...any) error {
	return &ResolveError{Name: name, Msg: fmt.Sprintf(format, args...)}
}

// Resolve binds identifiers in n against sc and type checks the result.
// It returns a new tree; n is not modified. want is the required result type
// (TypeInvalid to accept either).
func Resolve(n Node, sc Scope, want Type) (Node, error) {
	r, err := resolve(n, sc)
	if err != nil {
		return nil, err
	}
	if want != TypeInvalid && r.Type() != want {
		return nil, resErrf("", "expression %q has type %s, want %s", r, r.Type(), want)
	}
	return r, nil
}

func resolve(n Node, sc Scope) (Node, error) {
	switch n := n.(type) {
	case *IntLit, *BoolLit, *VarRef, *ClockRef:
		return n, nil
	case *DynVarRef:
		return n, nil
	case *Ident:
		sym, ok := sc.Lookup(n.Name)
		if !ok {
			return nil, resErrf(n.Name, "undefined name")
		}
		if n.Index == nil {
			switch sym.Kind {
			case SymConst:
				return &IntLit{Val: sym.Const}, nil
			case SymClock:
				return &ClockRef{Index: sym.Index, Name: n.Name}, nil
			default:
				if sym.Len > 0 {
					return nil, resErrf(n.Name, "array used without index")
				}
				return &VarRef{Index: sym.Index, Name: n.Name}, nil
			}
		}
		// Indexed access.
		if sym.Kind != SymVar || sym.Len == 0 {
			return nil, resErrf(n.Name, "indexed access to non-array")
		}
		idx, err := resolve(n.Index, sc)
		if err != nil {
			return nil, err
		}
		if idx.Type() != TypeInt {
			return nil, resErrf(n.Name, "array index must be int, got %s", idx.Type())
		}
		if lit, ok := idx.(*IntLit); ok {
			if lit.Val < 0 || lit.Val >= int64(sym.Len) {
				return nil, resErrf(n.Name, "constant index %d out of range [0,%d)", lit.Val, sym.Len)
			}
			return &VarRef{Index: sym.Index + int(lit.Val), Name: fmt.Sprintf("%s[%d]", n.Name, lit.Val)}, nil
		}
		return &DynVarRef{Base: sym.Index, Len: sym.Len, Index: idx, Name: n.Name}, nil
	case *Unary:
		x, err := resolve(n.X, sc)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case OpNeg:
			if x.Type() != TypeInt {
				return nil, resErrf("", "operand of unary - must be int, got %s in %q", x.Type(), x)
			}
		case OpNot:
			if x.Type() != TypeBool {
				return nil, resErrf("", "operand of ! must be bool, got %s in %q", x.Type(), x)
			}
		}
		return &Unary{Op: n.Op, X: x}, nil
	case *Binary:
		x, err := resolve(n.X, sc)
		if err != nil {
			return nil, err
		}
		y, err := resolve(n.Y, sc)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpLT, OpLE, OpGT, OpGE:
			if x.Type() != TypeInt || y.Type() != TypeInt {
				return nil, resErrf("", "operands of %s must be int in %q", n.Op, n)
			}
		case OpAnd, OpOr:
			if x.Type() != TypeBool || y.Type() != TypeBool {
				return nil, resErrf("", "operands of %s must be bool in %q", n.Op, n)
			}
		case OpEQ, OpNE:
			if x.Type() != y.Type() {
				return nil, resErrf("", "mismatched operand types %s and %s in %q", x.Type(), y.Type(), n)
			}
		}
		return foldBinary(&Binary{Op: n.Op, X: x, Y: y}), nil
	case *Cond:
		c, err := resolve(n.C, sc)
		if err != nil {
			return nil, err
		}
		if c.Type() != TypeBool {
			return nil, resErrf("", "condition of ?: must be bool in %q", n)
		}
		a, err := resolve(n.A, sc)
		if err != nil {
			return nil, err
		}
		b, err := resolve(n.B, sc)
		if err != nil {
			return nil, err
		}
		if a.Type() != b.Type() {
			return nil, resErrf("", "branches of ?: have different types in %q", n)
		}
		return &Cond{C: c, A: a, B: b}, nil
	}
	return nil, resErrf("", "unknown node %T", n)
}

// foldBinary performs constant folding over int-literal operands so that
// e.g. template parameters substituted as constants collapse into literals.
func foldBinary(b *Binary) Node {
	x, xok := b.X.(*IntLit)
	y, yok := b.Y.(*IntLit)
	if !xok || !yok {
		return b
	}
	switch b.Op {
	case OpAdd:
		return &IntLit{Val: x.Val + y.Val}
	case OpSub:
		return &IntLit{Val: x.Val - y.Val}
	case OpMul:
		return &IntLit{Val: x.Val * y.Val}
	case OpDiv:
		if y.Val != 0 {
			return &IntLit{Val: x.Val / y.Val}
		}
	case OpMod:
		if y.Val != 0 {
			return &IntLit{Val: x.Val % y.Val}
		}
	}
	return b
}

// ResolveUpdate resolves every assignment in list against sc, checking that
// targets are variables or clocks and values are int-typed.
func ResolveUpdate(list StmtList, sc Scope) (StmtList, error) {
	out := make(StmtList, 0, len(list))
	for _, s := range list {
		id, ok := s.Target.(*Ident)
		if !ok {
			// Already resolved.
			out = append(out, s)
			continue
		}
		target, err := resolve(id, sc)
		if err != nil {
			return nil, err
		}
		switch target.(type) {
		case *VarRef, *ClockRef, *DynVarRef:
		case *IntLit:
			return nil, resErrf(id.Name, "cannot assign to constant")
		default:
			return nil, resErrf(id.Name, "invalid assignment target")
		}
		val, err := resolve(s.Value, sc)
		if err != nil {
			return nil, err
		}
		if val.Type() != TypeInt {
			return nil, resErrf(id.Name, "assigned value must be int, got %s", val.Type())
		}
		out = append(out, Stmt{Target: target, Value: val})
	}
	return out, nil
}

// Clocks appends the global indices of all clocks referenced by n to dst and
// returns it. Duplicates are possible.
func Clocks(n Node, dst []int) []int {
	switch n := n.(type) {
	case *ClockRef:
		return append(dst, n.Index)
	case *Unary:
		return Clocks(n.X, dst)
	case *Binary:
		return Clocks(n.Y, Clocks(n.X, dst))
	case *Cond:
		return Clocks(n.B, Clocks(n.A, Clocks(n.C, dst)))
	case *DynVarRef:
		return Clocks(n.Index, dst)
	}
	return dst
}

// Vars appends the global indices of all variables n may read to dst and
// returns it; duplicates are possible. A DynVarRef contributes its whole
// array range, since the element read is only known at evaluation time.
func Vars(n Node, dst []int) []int {
	switch n := n.(type) {
	case *VarRef:
		return append(dst, n.Index)
	case *DynVarRef:
		for i := 0; i < n.Len; i++ {
			dst = append(dst, n.Base+i)
		}
		return Vars(n.Index, dst)
	case *Unary:
		return Vars(n.X, dst)
	case *Binary:
		return Vars(n.Y, Vars(n.X, dst))
	case *Cond:
		return Vars(n.B, Vars(n.A, Vars(n.C, dst)))
	}
	return dst
}

// MustParseResolve is a test/model-construction helper combining Parse and
// Resolve; it panics on error.
func MustParseResolve(src string, sc Scope, want Type) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	r, err := Resolve(n, sc, want)
	if err != nil {
		panic(err)
	}
	return r
}

// MustParseResolveUpdate is the update-list analogue of MustParseResolve.
func MustParseResolveUpdate(src string, sc Scope) StmtList {
	l, err := ParseUpdate(src)
	if err != nil {
		panic(err)
	}
	r, err := ResolveUpdate(l, sc)
	if err != nil {
		panic(err)
	}
	return r
}
