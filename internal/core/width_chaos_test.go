package core_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"acr/internal/chaos"
	"acr/internal/core"
)

// TestChaosCampaignsCleanAtWidthN is the width-identity check of the
// default, recovery-storm and remote-dark campaigns. A chaos hook does not
// change how a round is scheduled, so for a fixed seed the run report with
// every round stage forced 2, 3 or 8 workers wide must equal the width-1
// report byte for byte, and every run must be violation free. Under -race
// this is also the concurrency check of hooks firing from capture,
// exchange and compare workers and from the background flush and remote
// writers at once.
func TestChaosCampaignsCleanAtWidthN(t *testing.T) {
	defer core.SetTestStageWidth(0)
	scenarios := chaos.DefaultCampaign()
	for _, file := range []string{"recovery_storm.json", "remote_dark.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "examples", "chaos_campaign", file))
		if err != nil {
			t.Fatal(err)
		}
		var more []chaos.Scenario
		if err := json.Unmarshal(data, &more); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		scenarios = append(scenarios, more...)
	}
	report := func(t *testing.T, scn chaos.Scenario, seed int64, width int) []byte {
		t.Helper()
		core.SetTestStageWidth(width)
		res, err := chaos.RunScenario(scn, seed, 0, nil)
		if err != nil {
			t.Fatalf("seed %d width %d: %v", seed, width, err)
		}
		if len(res.Report.Violations) > 0 {
			t.Errorf("seed %d width %d: outcome %s, violations %v", seed, width, res.Report.Outcome, res.Report.Violations)
		}
		out, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, scn := range scenarios {
		t.Run(scn.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				want := report(t, scn, seed, 1)
				for _, width := range []int{2, 3, 8} {
					if got := report(t, scn, seed, width); !bytes.Equal(got, want) {
						t.Errorf("seed %d: width %d report differs from width 1\n got %s\nwant %s", seed, width, got, want)
					}
				}
			}
		})
	}
}

// TestBothModeCorruptionMirrorsAtWidthN is the oracle's own sensitivity
// check at width N: a Both-mode corruption must reach the buddy's write of
// the same (node, task, epoch) even when other tasks' writes interleave
// and whichever replica's write lands first, so the planted escape is
// still reported.
func TestBothModeCorruptionMirrorsAtWidthN(t *testing.T) {
	core.SetTestStageWidth(3)
	defer core.SetTestStageWidth(0)
	// The clean-chunk variant (internal/chaos's cleanChunkSensitivityScenario):
	// with a pad, the flip lands in the never-written sentinel element, in a
	// chunk the dirty capture only ever splices forward.
	clean := chaos.SensitivityScenario()
	clean.Name = "oracle-sensitivity-clean-chunk-corrupt"
	clean.PadFloats, clean.ChunkSize = 8, 32
	for i := range clean.Faults {
		clean.Faults[i].Trigger.Occurrence = 2
	}
	for _, scn := range []chaos.Scenario{chaos.SensitivityScenario(), clean} {
		t.Run(scn.Name, func(t *testing.T) {
			res, err := chaos.RunScenario(scn, 3, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			escaped := false
			for _, v := range res.Report.Violations {
				escaped = escaped || v.Invariant == chaos.InvSDCEscape
			}
			if !escaped {
				t.Fatalf("sdc-escape invariant did not fire at width 3; violations: %v", res.Report.Violations)
			}
		})
	}
}
