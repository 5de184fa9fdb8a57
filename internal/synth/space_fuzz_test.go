package synth

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stopwatchsim/internal/config"
)

// FuzzParseSpace feeds arbitrary bodies to the space decoder, as an
// untrusted POST /v1/synth would: no input may panic, and every accepted
// space must have a lattice cell per dimension and materialize its lowest
// corner without panicking. Each body is parsed alone and with the
// examples/imi base system injected.
func FuzzParseSpace(f *testing.F) {
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
	f.Add([]byte(`{"name":"x","dims":[{"target":"wcet:APP.t1","min":1,"max":16,"res":0.5}],"bogus":1}`))
	f.Add([]byte(`{"name":"x","dims":[{"target":"wcet:APP.t1","min":1,"max":1e300,"res":1e-300}]}`))
	f.Add([]byte(`{"name":"x","dims":[{"target":"period:APP.t2","min":5,"max":5}],"max_points":-1}`))
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
			space, err := ParseSpaceBase(bytes.NewReader(data), b)
			if err != nil {
				continue
			}
			space.Fingerprint()
			for i := range space.Dims {
				if n := space.Dims[i].cells(); n < 1 {
					t.Fatalf("accepted dim %q with %d cells", space.Dims[i].Target, n)
				}
			}
			space.Materialize(make([]int, len(space.Dims)))
		}
	})
}
