package nsa

import "testing"

func TestTimeHeapGenerationInvalidation(t *testing.T) {
	var h timeHeap
	gens := []uint32{0, 0, 0}
	h.push(10, 0, 0)
	h.push(5, 1, 0)
	h.push(7, 2, 0)
	if abs, ok := h.min(gens); !ok || abs != 5 {
		t.Fatalf("min = %d,%v want 5,true", abs, ok)
	}
	// Supersede automaton 1: its entry must be skipped lazily.
	gens[1] = 1
	h.push(9, 1, 1)
	if abs, ok := h.min(gens); !ok || abs != 7 {
		t.Fatalf("min after invalidation = %d,%v want 7,true", abs, ok)
	}
	// Supersede everything: heap drains to empty.
	gens[0], gens[1], gens[2] = 2, 2, 2
	if _, ok := h.min(gens); ok {
		t.Fatal("min on fully stale heap must report empty")
	}
	if len(h.e) != 0 {
		t.Fatalf("lazy deletion left %d entries", len(h.e))
	}
}

func TestTimeHeapCompact(t *testing.T) {
	var h timeHeap
	gens := make([]uint32, 4)
	// Many stale generations of the same automata.
	for g := uint32(0); g < 50; g++ {
		for aut := int32(0); aut < 4; aut++ {
			h.push(int64(100-g), aut, g)
			gens[aut] = g
		}
	}
	h.compact(gens)
	if len(h.e) != 4 {
		t.Fatalf("compact kept %d entries, want 4", len(h.e))
	}
	if abs, ok := h.min(gens); !ok || abs != 51 {
		t.Fatalf("min after compact = %d,%v want 51,true", abs, ok)
	}
}
