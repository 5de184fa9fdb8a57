package synth

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"stopwatchsim/internal/jobs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRegionGolden pins the region export schema — the body of
// GET /v1/synth/{id}/region and of `synth export` — by running the 1-D
// breakdown synthesis for real and comparing its region byte-for-byte. The
// schema deliberately carries no timestamps, and the refinement is
// deterministic, so the export is a pure function of the space: a diff
// here means either the schema or the refinement itself changed — bump
// regionSchemaVersion if the schema did, and regenerate with -update.
func TestRegionGolden(t *testing.T) {
	golden := filepath.Join("testdata", "region.json.golden")
	// The export must not depend on the pool's worker count.
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pool := jobs.New(jobs.Options{Workers: workers})
			defer pool.Close()
			eng := NewEngine(pool, nil, nil)

			space := oneDimSpace()
			space.Parallel = 1
			final := runSynth(t, eng, space)
			if final.Status != StatusDone {
				t.Fatalf("status = %s (%s)", final.Status, final.Error)
			}
			region := final.Region

			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(region); err != nil {
				t.Fatal(err)
			}
			got := buf.Bytes()

			if *update && workers == 1 {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("region export drifted from golden file (run with -update after a deliberate change):\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}
