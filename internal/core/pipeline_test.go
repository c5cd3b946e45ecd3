package core

import (
	"bytes"
	"fmt"
	stdruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/consensus"
	"acr/internal/runtime"
)

// TestStageWidths pins the one width function: an unknown or small state
// keeps the round inline, a link widens only the latency-bound exchange
// stage, CPU-bound stages fan out only when every worker gets
// stageWorkerBytes of state, and a chaos hook changes none of it.
func TestStageWidths(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(4))
	noop := point.HookFunc(func(point.ID, *point.Info) {})
	const small, big = 64, 16384 // particles per task: ~3 KB, ~768 KB
	cases := []struct {
		name      string
		particles int
		mut       func(*Config)
		warm      bool // run one capture first so the state-size hint is known
		want      stageWidths
	}{
		{"unknown size stays inline", big, func(c *Config) {}, false, stageWidths{1, 1, 1, 1}},
		{"small state stays inline", small, func(c *Config) {}, true, stageWidths{1, 1, 1, 1}},
		{"big state fans out the cpu-bound stages", big, func(c *Config) {}, true, stageWidths{4, 1, 4, 1}},
		{"one big task fans out its chunk checksums instead", 4 * big, func(c *Config) {
			c.NodesPerReplica, c.TasksPerNode = 1, 1
		}, true, stageWidths{1, 1, 1, 4}},
		{"a link widens only the exchange stage", small, func(c *Config) { c.Exchange = &ExchangeConfig{} }, true, stageWidths{1, 6, 1, 1}},
		{"a big state with a link fans out every stage", big, func(c *Config) { c.Exchange = &ExchangeConfig{} }, true, stageWidths{4, 6, 4, 1}},
	}
	widths := func(t *testing.T, cfg Config, warm bool) stageWidths {
		t.Helper()
		ctrl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			if _, _, err := ctrl.runRound(1, consensus.BothReplicas, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		return ctrl.stageWidths()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{NodesPerReplica: 3, TasksPerNode: 2, Factory: benchFactory(tc.particles), Comparison: ChecksumCompare}
			tc.mut(&cfg)
			if got := widths(t, cfg, tc.warm); got != tc.want {
				t.Errorf("stageWidths() = %+v, want %+v", got, tc.want)
			}
			// A fault campaign runs the schedule production runs.
			cfg.Chaos = noop
			if got := widths(t, cfg, tc.warm); got != tc.want {
				t.Errorf("with a chaos hook stageWidths() = %+v, want %+v as without one", got, tc.want)
			}
		})
	}
}

// roundOutcome is everything a round body leaves behind that must not
// depend on the stage widths.
type roundOutcome struct {
	mismatch string
	chunk    int
	err      error
	stored   map[ckptstore.Key][]byte
}

// bodyAtWidth builds an idle controller over the quiescent bench workload
// (the machine is never started, so every controller holds bit-identical
// factory state), plants seeded SDC at the given (node, task) spots of
// replica 0, and runs one compared round body at the given stage width,
// shipping every checkpoint through a seeded lossy link in chunkSize-byte
// frames (0 = the default, one frame per ~3 KB task).
func bodyAtWidth(t *testing.T, width, nodes, tasks int, comparison Comparison, chunkSize int, semi bool, spots [][2]int) roundOutcome {
	t.Helper()
	testStageWidth.Store(int32(width)) // the package's unexported scheduling seam
	ctrl, err := New(Config{
		NodesPerReplica: nodes,
		TasksPerNode:    tasks,
		Factory:         benchFactory(64),
		Comparison:      comparison,
		ChunkSize:       chunkSize,
		SemiBlocking:    semi,
		Exchange:        &ExchangeConfig{Loss: 0.05, Dup: 0.05, Reorder: 0.1, Seed: 11, ShipCheckpoints: true},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, spot := range spots {
		ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 0, Node: spot[0], Task: spot[1]})
	}
	ctrl.applyPendingSDC()
	ctrl.resetPhases()
	var drained atomic.Int32
	ship := func(n, task int) error { return ctrl.shipTask(1, n, task) }
	out := roundOutcome{stored: make(map[ckptstore.Key][]byte)}
	out.mismatch, out.chunk, out.err = ctrl.runRound(1, consensus.BothReplicas, ship, func() { drained.Add(1) })
	if got := drained.Load(); got != 1 {
		t.Fatalf("width %d: capture-drained callback ran %d times, want exactly once", width, got)
	}
	if ctrl.clocks[0].Busy() == 0 {
		t.Fatalf("width %d: round recorded no capture busy time", width)
	}
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < nodes; n++ {
			for task := 0; task < tasks; task++ {
				ck, err := ctrl.store.Get(ctrl.key(rep, n, task, 1))
				if err != nil {
					t.Fatal(err)
				}
				out.stored[ctrl.key(rep, n, task, 1)] = append([]byte(nil), ck.Bytes()...)
			}
		}
	}
	return out
}

// TestPipelinedRoundMatchesBarrierVerdict is the equivalence the one
// schedule rests on: the round body at width 1 (the inline barrier walk)
// and at widths 2, 3 and 8 (channel-connected worker pools) must leave the
// same mismatch string, the same localized chunk, the same error and the
// same stored bytes — for every comparison mode, blocking and
// semi-blocking, with seeded SDC at every (node, task) in turn, at several
// at once (the lowest pair must win however the workers race), and on a
// clean machine. The multichunk mode ships every task as a 13-frame window
// over the same lossy link, so windows of different transfers interleave.
func TestPipelinedRoundMatchesBarrierVerdict(t *testing.T) {
	defer testStageWidth.Store(0)
	const nodes, tasks = 2, 2
	modes := []struct {
		name       string
		comparison Comparison
		chunkSize  int
	}{{"checksum", ChecksumCompare, 0}, {"full", FullCompare, 0}, {"checksum-multichunk", ChecksumCompare, 256}}
	type spotCase struct {
		name  string
		spots [][2]int
	}
	cases := []spotCase{{"clean", nil}}
	for n := 0; n < nodes; n++ {
		for task := 0; task < tasks; task++ {
			cases = append(cases, spotCase{fmt.Sprintf("sdc-n%d-t%d", n, task), [][2]int{{n, task}}})
		}
	}
	cases = append(cases, spotCase{"sdc-multi", [][2]int{{1, 1}, {0, 1}, {1, 0}}})
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			for _, sc := range cases {
				t.Run(sc.name, func(t *testing.T) {
					for _, semi := range []bool{false, true} {
						ref := bodyAtWidth(t, 1, nodes, tasks, mode.comparison, mode.chunkSize, semi, sc.spots)
						if ref.err != nil {
							t.Fatalf("semi=%v width 1: %v", semi, ref.err)
						}
						if (ref.mismatch != "") != (len(sc.spots) > 0) {
							t.Fatalf("semi=%v width 1: mismatch %q with %d injected SDC", semi, ref.mismatch, len(sc.spots))
						}
						if sc.name == "sdc-multi" && !strings.Contains(ref.mismatch, "at n0/t1") {
							t.Fatalf("semi=%v width 1 reported %q, want the lowest corrupted pair n0/t1", semi, ref.mismatch)
						}
						for _, width := range []int{2, 3, 8} {
							for rerun := 0; rerun < 3; rerun++ { // racy schedules must not leak through
								got := bodyAtWidth(t, width, nodes, tasks, mode.comparison, mode.chunkSize, semi, sc.spots)
								if got.mismatch != ref.mismatch || got.chunk != ref.chunk || !errEq(got.err, ref.err) {
									t.Fatalf("semi=%v width %d = (%q, %d, %v), width 1 = (%q, %d, %v)",
										semi, width, got.mismatch, got.chunk, got.err, ref.mismatch, ref.chunk, ref.err)
								}
								for key, want := range ref.stored {
									if !bytes.Equal(got.stored[key], want) {
										t.Fatalf("semi=%v width %d: stored checkpoint %v differs from width 1", semi, width, key)
									}
								}
							}
						}
					}
				})
			}
		})
	}
}

// TestPipelinedRunEndToEnd drives a full live run through a wide exchange
// stage — hardened exchange with live-round checkpoint shipping, an
// injected SDC, and the resulting rollback — and checks the round verdicts
// and final state match the serial semantics, with the overlap-aware phase
// accounting filled in.
func TestPipelinedRunEndToEnd(t *testing.T) {
	cfg := baseConfig(2, 2, 8000)
	cfg.Exchange = &ExchangeConfig{Loss: 0.02, Dup: 0.02, Seed: 5, ShipCheckpoints: true}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w := ctrl.stageWidths(); w.exchange <= 1 {
		t.Fatalf("exchange-attached run has exchange stage width %d, want > 1", w.exchange)
	}
	ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 1, Node: 1, Task: 0})
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SDCDetected != 1 {
		t.Errorf("sdc detected = %d, want 1", stats.SDCDetected)
	}
	if len(stats.LocalizedChunks) != 1 {
		t.Errorf("localized chunks = %v, want one entry", stats.LocalizedChunks)
	}
	if stats.Rollbacks != 2 {
		t.Errorf("rollbacks = %d, want 2 (both replicas)", stats.Rollbacks)
	}
	if stats.ExchangeFrames == 0 || stats.ExchangeChunksShipped == 0 {
		t.Errorf("live rounds shipped nothing: frames=%d chunks=%d",
			stats.ExchangeFrames, stats.ExchangeChunksShipped)
	}
	// The busy arrays ride along with the wall arrays, one entry per
	// committed round, and a pipelined capture phase's busy time can
	// never undercut by more than measurement noise the barrier
	// invariant busy >= 0; what is structural is the lengths matching.
	if len(stats.CaptureBusyTimes) != len(stats.CaptureTimes) ||
		len(stats.ExchangeBusyTimes) != len(stats.ExchangeTimes) ||
		len(stats.CompareBusyTimes) != len(stats.CompareTimes) {
		t.Errorf("busy arrays out of step with wall arrays: %d/%d %d/%d %d/%d",
			len(stats.CaptureBusyTimes), len(stats.CaptureTimes),
			len(stats.ExchangeBusyTimes), len(stats.ExchangeTimes),
			len(stats.CompareBusyTimes), len(stats.CompareTimes))
	}
	verifyFinalState(t, ctrl, 2, 2, 8000)
}

// TestShipCheckpointConcurrentNoCrossContamination runs many transfers
// through one exchanger at once — distinct (node, task) checkpoints with
// distinctive payloads, over a seeded lossy/duplicating/reordering link,
// half of them delta-shipping against a partially matching base — and
// requires every reassembled checkpoint to be byte-identical to its
// source. Duplicate or late frames of one transfer landing in another's
// assembly buffer would fail the per-transfer root check; run under -race
// this also proves the protocol state's locking. (CI runs the bench smoke
// with -race; `go test -race ./internal/core` covers it directly.)
func TestShipCheckpointConcurrentNoCrossContamination(t *testing.T) {
	cfg := baseConfig(2, 2, 1000)
	cfg.Exchange = &ExchangeConfig{
		Loss: 0.05, Dup: 0.10, Reorder: 0.20, Seed: 17,
		// Tiny latency keeps many transfers genuinely in flight at once
		// without slowing the test measurably.
		Latency: 50 * time.Microsecond,
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := ctrl.exch

	const transfers = 24
	const chunkSize = 256
	const chunks = 16
	srcs := make([]*ckptstore.Checkpoint, transfers)
	bases := make([]*ckptstore.Checkpoint, transfers)
	for i := range srcs {
		data := make([]byte, chunkSize*chunks)
		for j := range data {
			// Distinctive per-transfer pattern: any cross-written chunk
			// makes the reassembled bytes (and root) differ.
			data[j] = byte(i*31 + j)
		}
		srcs[i] = ckptstore.Capture(data, chunkSize, 1)
		if i%2 == 1 {
			// Half the transfers are delta-aware: the base shares the
			// first half of the chunks, so only the rest cross the link.
			bdata := append([]byte(nil), data...)
			for j := len(bdata) / 2; j < len(bdata); j++ {
				bdata[j] ^= 0xA5
			}
			bases[i] = ckptstore.Capture(bdata, chunkSize, 1)
		}
	}

	got := make([]*ckptstore.Checkpoint, transfers)
	errs := make([]error, transfers)
	var wg sync.WaitGroup
	wg.Add(transfers)
	for i := 0; i < transfers; i++ {
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = x.shipCheckpoint(1, i/4, i%4, srcs[i], bases[i])
		}(i)
	}
	wg.Wait()

	for i := 0; i < transfers; i++ {
		if errs[i] != nil {
			t.Fatalf("transfer %d: %v", i, errs[i])
		}
		if got[i].Root != srcs[i].Root || !bytes.Equal(got[i].Bytes(), srcs[i].Bytes()) {
			t.Fatalf("transfer %d reassembled bytes differ from source", i)
		}
		if &got[i].Bytes()[0] == &srcs[i].Bytes()[0] {
			t.Fatalf("transfer %d aliases its source buffer", i)
		}
	}
	shipped, reused := x.chunksShipped.Load(), x.chunksReused.Load()
	if shipped+reused != transfers*chunks {
		t.Errorf("chunk accounting: shipped %d + reused %d != %d total", shipped, reused, transfers*chunks)
	}
	// Every odd transfer's base matched exactly its first half.
	if wantReused := int64(transfers / 2 * chunks / 2); reused != wantReused {
		t.Errorf("chunks reused = %d, want %d", reused, wantReused)
	}
	if x.retries.Load() == 0 {
		t.Error("lossy link produced no retries")
	}
}
