package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stopwatchsim/internal/config"
)

// FuzzParseSpec feeds arbitrary bodies to the spec decoder, as an
// untrusted POST /v1/campaigns would: no input may panic, and every
// accepted spec must stay within max_points points — a grid by its
// expansion, a bisection or frontier by running the real bisection loop
// against boundaries placed across the bisected axis. Each body is
// parsed alone and with the examples/imi base system injected, so target
// axes reach their validation too.
func FuzzParseSpec(f *testing.F) {
	imi := filepath.Join("..", "..", "examples", "imi")
	seeds, _ := filepath.Glob(filepath.Join(imi, "*.json"))
	for _, path := range seeds {
		// Exports are not decoder inputs, and a large seed only slows the
		// minimizer down.
		if strings.HasSuffix(path, ".golden.json") {
			continue
		}
		if raw, err := os.ReadFile(path); err == nil {
			f.Add(raw)
		}
	}
	for _, c := range specRejects {
		f.Add([]byte(c.body))
	}
	xml, err := os.Open(filepath.Join(imi, "generic-edf.xml"))
	if err != nil {
		f.Fatal(err)
	}
	sys, err := config.ReadXML(xml)
	xml.Close()
	if err != nil {
		f.Fatal(err)
	}
	// Decoding only reads the injected base (materializing clones it), so
	// one parsed system serves every input.
	base := func() (*config.System, error) { return sys, nil }

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range []func() (*config.System, error){nil, base} {
			spec, err := ParseSpecBase(bytes.NewReader(data), b)
			if err != nil {
				continue
			}
			spec.Fingerprint()
			// Accepted specs are only expanded up to a million points: a spec
			// may raise max_points arbitrarily, and a larger expansion is
			// bounded by the same arithmetic count as a smaller one.
			if spec.maxPoints() > 1<<20 {
				continue
			}
			switch spec.Strategy {
			case StrategyGrid:
				if n := spec.gridSize(); n > spec.maxPoints() {
					t.Fatalf("accepted grid of %d points over max_points %d", n, spec.maxPoints())
				}
			case StrategyBisect, StrategyFrontier:
				// A frontier row costs its seeding probe plus one bisection.
				rows, seed := 1, 0
				if spec.Strategy == StrategyFrontier {
					if n := spec.Axes[0].gridCells(); n > float64(spec.maxPoints()) {
						t.Fatalf("accepted frontier of %.0f rows over max_points %d", n, spec.maxPoints())
					}
					rows, seed = len(spec.Axes[0].gridValues()), 1
				}
				col := &spec.Axes[len(spec.Axes)-1]
				for _, f := range []float64{0.01, 1.0 / 3, 0.5, 0.99} {
					n := rows * (seed + worstBisection(col, col.Min+f*(col.Max-col.Min), spec.maxPoints()))
					if n > spec.maxPoints() {
						t.Fatalf("accepted %s of %d points over max_points %d", spec.Strategy, n, spec.maxPoints())
					}
				}
			}
		}
	})
}

// worstBisection counts the evaluations a bisection of a takes against a
// schedulability boundary at thr, with both endpoints evaluated; it stops
// counting past limit.
func worstBisection(a *Axis, thr float64, limit int) int {
	n := 2
	a.bisectLoop(a.Min, a.Max, func(v float64) (bool, error) {
		if n++; n > limit {
			return false, errors.New("over limit")
		}
		return v <= thr, nil
	})
	return n
}
