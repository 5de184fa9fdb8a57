package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stopwatchsim/internal/config"
)

// FuzzParseSpec feeds arbitrary bodies to the spec decoder, as an
// untrusted POST /v1/campaigns would: no input may panic, and every
// accepted grid must expand to at most max_points points. Each body is
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
			// Accepted grids are only expanded up to a million points: a spec
			// may raise max_points arbitrarily, and a larger expansion is
			// bounded by the same arithmetic count as a smaller one.
			if spec.Strategy == StrategyGrid && spec.maxPoints() <= 1<<20 {
				if n := spec.gridSize(); n > spec.maxPoints() {
					t.Fatalf("accepted grid of %d points over max_points %d", n, spec.maxPoints())
				}
			}
		}
	})
}
