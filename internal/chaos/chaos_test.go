package chaos

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"acr/internal/chaos/point"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	scn := DefaultCampaign()[0]
	scn.Faults = append(scn.Faults, Fault{
		Kind:    HeartbeatDelay,
		Target:  Target{Replica: 1, Node: 1, Task: 0},
		Trigger: Trigger{Point: point.RuntimeHeartbeat, Occurrence: 3},
		Delay:   Duration(4 * time.Millisecond),
	})
	data, err := json.Marshal(&scn)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip changed the scenario:\n%s\n%s", data, data2)
	}
	if back.Faults[1].Delay != Duration(4*time.Millisecond) {
		t.Fatalf("delay did not round-trip: %v", back.Faults[1].Delay)
	}
}

func TestScenarioValidation(t *testing.T) {
	base := DefaultCampaign()[0]
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"zero nodes", func(s *Scenario) { s.Nodes = 0 }},
		{"zero pace", func(s *Scenario) { s.PaceEvery = 0 }},
		{"bad scheme", func(s *Scenario) { s.Scheme = "heroic" }},
		{"bad comparison", func(s *Scenario) { s.Comparison = "vibes" }},
		{"bad store", func(s *Scenario) { s.Store = "tape" }},
		{"bad kind", func(s *Scenario) { s.Faults[0].Kind = "gamma_ray" }},
		{"bad point", func(s *Scenario) { s.Faults[0].Trigger.Point = "core.nonsense" }},
		{"both on crash", func(s *Scenario) { s.Faults[0].Both = true }},
		{"one-element pad", func(s *Scenario) { s.PadFloats = 1 }},
		{"negative chunk size", func(s *Scenario) { s.ChunkSize = -1 }},
		{"tracker blind without pad", func(s *Scenario) {
			s.Faults[0] = Fault{
				Kind:    TrackerBlind,
				Target:  Target{Replica: 0, Node: 0, Task: 0},
				Trigger: Trigger{Point: point.CoreCapture, Occurrence: 1},
			}
		}},
		{"remote fault without remote tier", func(s *Scenario) {
			s.Faults[0] = Fault{
				Kind:    RemoteDark,
				Target:  Target{Replica: -1, Node: -1, Task: -1},
				Trigger: Trigger{Point: point.CoreCommit, Occurrence: 1},
			}
		}},
		{"remote op fail off remote point", func(s *Scenario) {
			s.RemoteEvery = 1
			s.Faults[0] = Fault{
				Kind:    RemoteOpFail,
				Target:  Target{Replica: -1, Node: -1, Task: -1},
				Trigger: Trigger{Point: point.CoreCommit, Occurrence: 1},
			}
		}},
		{"count on non-dark fault", func(s *Scenario) { s.Faults[0].Count = 3 }},
		{"negative remote every", func(s *Scenario) { s.RemoteEvery = -1 }},
		{"tracker blind off capture point", func(s *Scenario) {
			s.PadFloats = 8
			s.Faults[0] = Fault{
				Kind:    TrackerBlind,
				Target:  Target{Replica: 0, Node: 0, Task: 0},
				Trigger: Trigger{Point: point.CoreCommit, Occurrence: 1},
			}
		}},
	}
	for _, tc := range cases {
		scn := base
		scn.Faults = append([]Fault(nil), base.Faults...)
		tc.mutate(&scn)
		if err := scn.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
}

func TestGoldenFinalMatchesFaultFreeRun(t *testing.T) {
	scn := Scenario{
		Name: "fault-free", Nodes: 2, Tasks: 2, Spares: 0, Iters: 40,
		Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
	}
	res, err := RunScenario(scn, 1, 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Report.Outcome != OutcomeOK {
		t.Fatalf("fault-free run outcome %q, violations %v", res.Report.Outcome, res.Report.Violations)
	}
}

// TestDefaultCampaignCleanAndCovered is the acceptance gate: the stock
// campaign must stay violation-free while exercising every registered
// injection point.
func TestDefaultCampaignCleanAndCovered(t *testing.T) {
	rep, err := RunCampaign(CampaignConfig{
		Name:      "default",
		Scenarios: DefaultCampaign(),
		SeedBase:  1,
		Seeds:     2,
		Parallel:  4,
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	for _, run := range rep.Runs {
		if run.Outcome != OutcomeOK && run.Outcome != OutcomeDetectedAtRest {
			t.Errorf("%s seed %d: outcome %q, violations %v", run.Scenario, run.Seed, run.Outcome, run.Violations)
		}
		for _, f := range run.Faults {
			if !f.Executed {
				t.Errorf("%s seed %d: fault %s@%s never executed", run.Scenario, run.Seed, f.Kind, f.Point)
			}
		}
	}
	if rep.Violations != 0 {
		t.Errorf("campaign reported %d violations, want 0", rep.Violations)
	}
	if len(rep.Coverage) != len(point.All()) {
		t.Fatalf("coverage has %d entries, want %d", len(rep.Coverage), len(point.All()))
	}
	for _, c := range rep.Coverage {
		if !c.Exercised {
			t.Errorf("injection point %s never exercised by the default campaign", c.Point)
		}
	}
}

// TestCampaignReportDeterministic: same seed range twice, byte-identical
// JSON.
func TestCampaignReportDeterministic(t *testing.T) {
	run := func() []byte {
		rep, err := RunCampaign(CampaignConfig{
			Name:      "determinism",
			Scenarios: DefaultCampaign(),
			SeedBase:  7,
			Seeds:     2,
			Parallel:  4,
		})
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		out, err := rep.JSON()
		if err != nil {
			t.Fatalf("json: %v", err)
		}
		return out
	}
	a := run()
	b := run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed range produced different reports:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestOracleSensitivity: blinding the buddy comparison (identical
// corruption in both buddies) MUST fire the sdc-escape invariant. If this
// fails, the oracle can no longer see escaped corruption.
func TestOracleSensitivity(t *testing.T) {
	res, err := RunScenario(SensitivityScenario(), 3, 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Report.Outcome != OutcomeViolation {
		t.Fatalf("outcome %q, want %q (violations: %v)", res.Report.Outcome, OutcomeViolation, res.Report.Violations)
	}
	var escaped bool
	for _, v := range res.Report.Violations {
		if v.Invariant == InvSDCEscape {
			escaped = true
		}
	}
	if !escaped {
		t.Fatalf("sdc-escape invariant did not fire; violations: %v", res.Report.Violations)
	}
}

// blindTrackerScenario is the incremental-capture counterpart of
// SensitivityScenario: instead of corrupting stored bytes, it makes the
// dirty tracker LIE. Both buddies' target task stops marking its pad
// writes right before the first capture, so every later checkpoint splices
// stale pad bytes — identically in both replicas, which the comparison is
// structurally blind to. The crash then forces a restore from a committed
// stale checkpoint, losing pad increments permanently. A healthy oracle
// MUST report a golden-result violation here; if this scenario ever comes
// back clean, the capture path has stopped consulting the tracker (for
// example by quietly reverting to full packs) and the incremental path has
// lost its staleness check.
func blindTrackerScenario() Scenario {
	return Scenario{
		Name: "oracle-sensitivity-blind-tracker", Nodes: 2, Tasks: 2, Spares: 2, Iters: 60,
		Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
		PadFloats: 8, ChunkSize: 32,
		Faults: []Fault{
			{
				Kind:    TrackerBlind,
				Target:  Target{Replica: 0, Node: 0, Task: 0},
				Trigger: Trigger{Point: point.CoreCapture, Occurrence: 1},
			},
			{
				Kind:    Crash,
				Target:  Target{Replica: 0, Node: 1, Task: -1},
				Trigger: Trigger{Point: point.CoreCommit, Occurrence: 2},
			},
		},
	}
}

// TestBlindTrackerSensitivity: a dirty tracker that stops marking pad
// writes in both buddies makes every later capture splice stale pad bytes,
// identically on both sides, so the comparison commits them; the crash
// then restores from a stale epoch and loses increments permanently. The
// golden-pad invariant MUST fire. If this run ever comes back clean, the
// capture path has stopped consulting the tracker (e.g. silently reverted
// to full packs) and the oracle can no longer see incremental-capture
// staleness.
func TestBlindTrackerSensitivity(t *testing.T) {
	res, err := RunScenario(blindTrackerScenario(), 3, 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Report.Outcome != OutcomeViolation {
		t.Fatalf("outcome %q, want %q (violations: %v)", res.Report.Outcome, OutcomeViolation, res.Report.Violations)
	}
	var golden bool
	for _, v := range res.Report.Violations {
		if v.Invariant == InvGoldenResult {
			golden = true
		}
	}
	if !golden {
		t.Fatalf("golden-result invariant did not fire on a blinded tracker; violations: %v", res.Report.Violations)
	}
	for _, f := range res.Report.Faults {
		if !f.Executed {
			t.Fatalf("fault %s@%s never executed", f.Kind, f.Point)
		}
	}
}

// cleanChunkSensitivityScenario plants a Both-mode bit flip in the stored
// checkpoint's trailing bytes — with a pad, that is the never-written
// sentinel element, bytes the dirty capture has only ever spliced forward,
// in a chunk the per-round scalar churn never touches. Committing that
// epoch must still count as an SDC escape: clean-chunk reuse is a capture
// optimization, never an excuse to stop accounting for resident
// corruption. The crash then restores from the corrupted epoch, so the
// golden-pad comparison fires too.
func cleanChunkSensitivityScenario() Scenario {
	return Scenario{
		Name: "oracle-sensitivity-clean-chunk-corrupt", Nodes: 2, Tasks: 2, Spares: 2, Iters: 60,
		Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
		PadFloats: 8, ChunkSize: 32,
		Faults: []Fault{
			{
				Kind:    CkptCorrupt,
				Target:  Target{Replica: 0, Node: 0, Task: 0},
				Trigger: Trigger{Point: point.StoreWrite, Occurrence: 2},
				Both:    true,
			},
			{
				Kind:    Crash,
				Target:  Target{Replica: 0, Node: 1, Task: -1},
				Trigger: Trigger{Point: point.CoreCommit, Occurrence: 2},
			},
		},
	}
}

// TestCleanChunkCorruptionSensitivity: a Both-mode flip in the pad's
// never-written sentinel element — bytes every incremental capture only
// splices forward, in a chunk the scalar churn never dirties — must still
// count as an SDC escape when the epoch commits. Clean-chunk reuse is a
// capture optimization, not a blind spot in the corruption accounting.
func TestCleanChunkCorruptionSensitivity(t *testing.T) {
	res, err := RunScenario(cleanChunkSensitivityScenario(), 3, 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Report.Outcome != OutcomeViolation {
		t.Fatalf("outcome %q, want %q (violations: %v)", res.Report.Outcome, OutcomeViolation, res.Report.Violations)
	}
	var escaped bool
	for _, v := range res.Report.Violations {
		if v.Invariant == InvSDCEscape {
			escaped = true
		}
	}
	if !escaped {
		t.Fatalf("sdc-escape invariant did not fire; violations: %v", res.Report.Violations)
	}
}

// TestGoldenPadFaultFree: a pad-carrying scenario with no faults must
// finish golden — pins that the tracked pad, the dirty splice/patch
// capture, and the golden-pad reference all agree when nothing goes wrong.
func TestGoldenPadFaultFree(t *testing.T) {
	scn := Scenario{
		Name: "pad-fault-free", Nodes: 2, Tasks: 2, Spares: 0, Iters: 40,
		Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
		PadFloats: 8, ChunkSize: 32,
	}
	res, err := RunScenario(scn, 1, 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Report.Outcome != OutcomeOK {
		t.Fatalf("fault-free pad run outcome %q, violations %v", res.Report.Outcome, res.Report.Violations)
	}
}

// TestRemoteDarkNeverAbortsJob: the ISSUE's headline robustness claim. A
// fully dark remote must cost nothing but the remote tier itself: the job
// completes golden through the local ladder (tier <= 2), the breaker trips,
// and the epochs the remote refused land on the Resilient fallback.
func TestRemoteDarkNeverAbortsJob(t *testing.T) {
	var scn Scenario
	for _, s := range DefaultCampaign() {
		if s.Name == "remote-dark-failover" {
			scn = s
		}
	}
	if scn.Name == "" {
		t.Fatal("default campaign lost the remote-dark scenario")
	}
	res, err := RunScenario(scn, 2, 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Report.Outcome != OutcomeOK {
		t.Fatalf("dark remote aborted the job: outcome %q, violations %v",
			res.Report.Outcome, res.Report.Violations)
	}
	if res.Stats.TierRecoveries[3] != 0 {
		t.Fatalf("recovery touched the dark remote tier: %v", res.Stats.TierRecoveries)
	}
	if got := res.Stats.TierRecoveries[1] + res.Stats.TierRecoveries[2]; got == 0 {
		t.Fatalf("buddy double crash never climbed to a local durable tier: %v", res.Stats.TierRecoveries)
	}
	if res.Stats.Remote.Trips == 0 {
		t.Fatalf("breaker never tripped against a dark remote: %+v", res.Stats.Remote)
	}
	if res.Stats.Remote.Failovers == 0 {
		t.Fatalf("no epoch failed over to the local fallback: %+v", res.Stats.Remote)
	}
	if res.Stats.RemoteFlushErrors == 0 {
		t.Fatalf("dark remote produced no flush errors: %+v", res.Stats)
	}
}

// TestRemoteTierRecovery: with no local durable tier, a buddy double crash
// must climb all the way to tier 3 and restore from the remote object
// store, absorbing a force-failed read with a retry on the way.
func TestRemoteTierRecovery(t *testing.T) {
	var scn Scenario
	for _, s := range DefaultCampaign() {
		if s.Name == "remote-tier-recovery" {
			scn = s
		}
	}
	if scn.Name == "" {
		t.Fatal("default campaign lost the remote-tier-recovery scenario")
	}
	res, err := RunScenario(scn, 2, 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Report.Outcome != OutcomeOK {
		t.Fatalf("outcome %q, violations %v", res.Report.Outcome, res.Report.Violations)
	}
	if res.Stats.TierRecoveries[3] == 0 {
		t.Fatalf("recovery never reached the remote tier: %v", res.Stats.TierRecoveries)
	}
	if res.Stats.Remote.Retries == 0 {
		t.Fatalf("force-failed remote read was not retried: %+v", res.Stats.Remote)
	}
}

// TestRemoteFlappingBreakerConverges: a bounded outage trips the breaker;
// background probes burn the outage budget, the breaker re-closes, and
// remote flushes resume — trip AND re-close both observable in the stats.
func TestRemoteFlappingBreakerConverges(t *testing.T) {
	var scn Scenario
	for _, s := range DefaultCampaign() {
		if s.Name == "remote-flapping-breaker" {
			scn = s
		}
	}
	if scn.Name == "" {
		t.Fatal("default campaign lost the remote-flapping scenario")
	}
	res, err := RunScenario(scn, 2, 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Report.Outcome != OutcomeOK {
		t.Fatalf("outcome %q, violations %v", res.Report.Outcome, res.Report.Violations)
	}
	rs := res.Stats.Remote
	if rs.Trips == 0 {
		t.Fatalf("outage never tripped the breaker: %+v", rs)
	}
	if rs.Recloses == 0 {
		t.Fatalf("breaker never re-closed after the outage healed: %+v", rs)
	}
	if rs.State != "closed" {
		t.Fatalf("breaker finished %q, want closed: %+v", rs.State, rs)
	}
	if res.Stats.RemoteFlushedEpochs == 0 {
		t.Fatalf("no epoch ever landed on the remote tier: %+v", res.Stats)
	}
}

// TestMinimizeSchedule: ddmin strips decoy faults down to the single
// corruption that causes the violation.
func TestMinimizeSchedule(t *testing.T) {
	scn := SensitivityScenario()
	// Pad the schedule with harmless decoys the minimizer must discard.
	// (A msg bit flip would NOT be harmless here: by desynchronizing the
	// buddies it makes the comparison catch the round the Both-corruption
	// was built to sneak through, masking the violation.)
	scn.Faults = append(scn.Faults,
		Fault{
			Kind:    HeartbeatDelay,
			Target:  Target{Replica: 1, Node: 1, Task: 0},
			Trigger: Trigger{Point: point.RuntimeHeartbeat, Occurrence: 2},
			Delay:   Duration(time.Millisecond),
		},
		Fault{
			Kind:    Crash,
			Target:  Target{Replica: 1, Node: 0, Task: -1},
			Trigger: Trigger{Point: point.CoreCapture, Occurrence: 5},
		},
	)
	res, err := MinimizeSchedule(scn, 3, 0)
	if err != nil {
		t.Fatalf("minimize: %v", err)
	}
	if len(res.Scenario.Faults) >= len(scn.Faults) {
		t.Fatalf("minimization did not shrink the schedule: %d faults", len(res.Scenario.Faults))
	}
	var hasCorrupt bool
	for _, f := range res.Scenario.Faults {
		if f.Kind == CkptCorrupt {
			hasCorrupt = true
		}
	}
	if !hasCorrupt {
		t.Fatalf("minimal schedule lost the corruption fault: %+v", res.Scenario.Faults)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("minimal schedule reports no violations")
	}
	if res.Runs < 2 {
		t.Fatalf("minimization claims %d runs", res.Runs)
	}
}

// TestDiskAtRestDetection: at-rest corruption on the disk tier must
// surface as the detected-at-rest outcome, never as a silent restore.
func TestDiskAtRestDetection(t *testing.T) {
	var scn Scenario
	for _, s := range DefaultCampaign() {
		if s.Store == "disk" {
			scn = s
		}
	}
	if scn.Name == "" {
		t.Fatal("default campaign has no disk scenario")
	}
	res, err := RunScenario(scn, 5, 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Report.Outcome != OutcomeDetectedAtRest {
		t.Fatalf("outcome %q, want %q (violations: %v)", res.Report.Outcome, OutcomeDetectedAtRest, res.Report.Violations)
	}
}
