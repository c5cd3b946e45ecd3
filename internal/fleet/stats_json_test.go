package fleet

import (
	"encoding/json"
	"testing"

	"acr/internal/core"
)

// TestStatsJSONSchemaGolden pins the wire schema of the stats structs the
// acrd HTTP API and /metrics exporter serve. These encodings are consumed
// by external scrapers; renaming a tag, changing a field's kind, or
// reordering fields is a breaking API change and must fail here first.
// Zero values are encoded deliberately: the golden string then pins the
// complete key set, including fields that would hide behind omitempty.
func TestStatsJSONSchemaGolden(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want string
	}{
		{
			name: "core.Stats",
			v:    core.Stats{},
			want: `{"checkpoints":0,"sdc_detected":0,"hard_errors":0,"rollbacks":0,"spares_used":0,"aborted_rounds":0,"predicted":0,"final_interval_ns":0,"checkpoint_times_ns":null,"blocked_times_ns":null,"capture_times_ns":null,"exchange_times_ns":null,"compare_times_ns":null,"capture_busy_times_ns":null,"exchange_busy_times_ns":null,"compare_busy_times_ns":null,"pack_fast_path":0,"pack_slow_path":0,"capture_chunks_packed":0,"capture_chunks_reused":0,"capture_bytes_reused":0,"dirty_ratio":0,"exchange_chunks_shipped":0,"exchange_chunks_reused":0,"pool":{"gets":0,"puts":0,"hits":0,"misses":0,"drops":0,"bytes_recycled":0},"elapsed_ns":0,"store_name":"","store":{"puts":0,"gets":0,"compares":0,"mismatches":0,"bytes_written":0,"bytes_read":0,"bytes_evicted":0,"chunks_stored":0,"compare_time_ns":0,"last_localized_chunk":0},"localized_chunks":null,"tier_recoveries":[0,0,0,0],"rollback_depths":null,"max_rollback_depth":0,"flushed_epochs":0,"flush_errors":0,"buddy_pair_losses":0,"remote_flushed_epochs":0,"remote_flush_errors":0,"remote":{"retries":0,"transients":0,"deadlines":0,"trips":0,"recloses":0,"probes":0,"probe_failures":0,"failovers":0,"deduped_puts":0,"state":""},"folds":0,"expands":0,"degraded_nodes":0,"resumed_epoch":0,"exchange_frames":0,"exchange_retries":0,"link":{"sent":0,"delivered":0,"lost":0,"duplicated":0,"reordered":0}}`,
		},
		{
			name: "fleet.FleetStats",
			v:    FleetStats{},
			want: `{"submitted":0,"admissions":0,"completed":0,"failed":0,"preemptions":0,"spare_grants":0,"queue_wait_ns":0,"max_queue_wait_ns":0,"degraded_ns":0,"arbiter":{"write_waits":0,"write_wait_ns":0,"write_bytes":0,"read_bypasses":0},"remote_arbiter":{"write_waits":0,"write_wait_ns":0,"write_bytes":0,"read_bypasses":0},"jobs":null}`,
		},
		{
			name: "fleet.ArbiterStats",
			v:    ArbiterStats{},
			want: `{"write_waits":0,"write_wait_ns":0,"write_bytes":0,"read_bypasses":0}`,
		},
		{
			name: "core.Progress",
			v:    core.Progress{},
			want: `{"committed_epoch":0,"checkpoints":0,"hard_errors":0,"sdc_detected":0,"rollbacks":0,"flushed_epochs":0,"flush_errors":0,"tier_recoveries":[0,0,0,0],"folds":0,"expands":0,"degraded_nodes":0,"resumed_epoch":0,"remote_flushed_epochs":0,"remote_flush_errors":0,"remote_retries":0,"remote_breaker_trips":0,"remote_breaker_recloses":0,"remote_failovers":0,"remote_breaker_open":0}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("schema drift:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// TestJobResultRoundTrip: JobResult (the per-job payload inside FleetStats)
// must survive an encode/decode cycle with its embedded core.Stats intact.
func TestJobResultRoundTrip(t *testing.T) {
	in := JobResult{Name: "j", Priority: 3, Completed: true}
	in.Stats.Checkpoints = 7
	in.Stats.TierRecoveries = [4]int{1, 2, 3, 4}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out JobResult
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "j" || out.Priority != 3 || !out.Completed ||
		out.Stats.Checkpoints != 7 || out.Stats.TierRecoveries != [4]int{1, 2, 3, 4} {
		t.Fatalf("round trip mangled result: %+v", out)
	}
}
