package core_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"acr/internal/chaos"
	"acr/internal/core"
)

// TestChaosCampaignsCleanAtWidthN runs the default, recovery-storm and
// remote-dark campaigns with every round stage forced three workers wide —
// the schedule production runs and the chaos pin otherwise keeps the oracle
// away from — and requires a clean oracle on every scenario. Reports are
// not compared byte for byte: at width N which firing a fault lands on may
// legitimately differ; what may not differ is that every run is violation
// free. Under -race this is also the concurrency check of hooks firing
// from capture, exchange and compare workers and from the background
// flush and remote writers at once.
func TestChaosCampaignsCleanAtWidthN(t *testing.T) {
	core.SetTestStageWidth(3)
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
	for _, scn := range scenarios {
		t.Run(scn.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				res, err := chaos.RunScenario(scn, seed, 0, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(res.Report.Violations) > 0 {
					t.Errorf("seed %d: outcome %s, violations %v", seed, res.Report.Outcome, res.Report.Violations)
				}
			}
		})
	}
}

// TestBothModeCorruptionMirrorsAtWidthN is the oracle's own sensitivity
// check at width N: a Both-mode corruption must reach the buddy's write of
// the same (node, task, epoch) even when other tasks' writes interleave, so
// the planted escape is still reported.
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
