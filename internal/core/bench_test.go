package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"acr/internal/checksum"
	"acr/internal/ckptstore"
	"acr/internal/runtime"
)

// dirtyConfig is the 16 MB single-task vector whose iterations rewrite its
// first tenth: tracked, a round re-encodes only the chunks that window
// touches; untracked, it re-packs and re-hashes everything.
func dirtyConfig(tracked bool) Config {
	return Config{NodesPerReplica: 1, TasksPerNode: 1, Comparison: ChecksumCompare,
		Factory: benchDirtyFactory(16<<20/8, 10, tracked)}
}

// BenchmarkRound times the controller's own checkpointRound — consensus cut,
// two-replica capture, buddy exchange and comparison, commit, eviction and
// the hand-off to the tier writers — on a started machine whose tasks are
// mid-iteration when each round begins, without the event loop's timers.
// It is the local microscope: absolute ns/op, allocs/op and the mean stage
// spans of one shape. What a change bought end to end is bench/'s to say.
func BenchmarkRound(b *testing.B) {
	// 8 tasks of 256 KB rewriting a quarter of their state, every round
	// shipped over a 2 ms / 1 %-loss link: the exchange stage runs 32 wide
	// and overlaps capture and compare. Checksum mode sends one digest frame
	// per task; the -full twin ships the checkpoint bytes.
	link := func(comparison Comparison) Config {
		return Config{NodesPerReplica: 4, TasksPerNode: 2, Comparison: comparison,
			Factory:  benchDirtyFactory(32768, 25, true),
			Exchange: &ExchangeConfig{Latency: 2 * time.Millisecond, Loss: 0.01, Seed: 42, ShipCheckpoints: true}}
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		// 2x2 tasks of 2048 particles, byte compare: the struct-of-structs
		// pack and every stage at width 1.
		{"96KB", Config{NodesPerReplica: 2, TasksPerNode: 2, Factory: benchFactory(2048)}},
		{"16MB-dirty10-tracked", dirtyConfig(true)},
		{"16MB-dirty10-untracked", dirtyConfig(false)},
		{"2MB-link2ms-dirty25", link(ChecksumCompare)},
		{"2MB-link2ms-dirty25-full", link(FullCompare)},
		// Every commit uploads its epoch to a 2 ms-per-op object store on
		// the background remote writer: clone barrier on the path, puts off it.
		{"96KB-remote2ms", Config{NodesPerReplica: 2, TasksPerNode: 2, Comparison: ChecksumCompare,
			Factory:          benchFactory(2048),
			RemoteStore:      ckptstore.NewRemote(ckptstore.RemoteOptions{Latency: 2 * time.Millisecond}),
			RemoteFlushEvery: 1}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			ctrl, err := New(tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			ctrl.start = time.Now()
			ctrl.machine.Start()
			defer ctrl.machine.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ctrl.checkpointRound(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// The background writers must not outlive the measurement.
			for _, t := range ctrl.tiers {
				t.wg.Wait()
			}
			if n := ctrl.stats.SDCDetected; n > 0 {
				b.Fatalf("spurious SDC detected (%d): the replicas diverged", n)
			}
			meanMs := func(xs []time.Duration) float64 {
				var sum time.Duration
				for _, x := range xs {
					sum += x
				}
				return sum.Seconds() * 1e3 / float64(len(xs))
			}
			b.ReportMetric(meanMs(ctrl.stats.CaptureTimes), "capture-ms")
			b.ReportMetric(meanMs(ctrl.stats.ExchangeTimes), "exchange-ms")
			b.ReportMetric(meanMs(ctrl.stats.CompareTimes), "compare-ms")
		})
	}
}

// TestDirtyRoundPacksOnlyDirtyChunks states exactly what a tracked/untracked
// timing ratio could only suggest: over committed rounds of a live job, the
// tracked program re-encodes the chunks its hot window touches and splices
// the rest from the previous epoch, and the untracked twin never splices.
// The pool counters pin that the controller patches in place: after the
// first two rounds a tracked capture re-encodes into the buffer it retained
// two epochs ago and draws nothing from the pool, so every evicted
// checkpoint is still retained and dropped; the untracked twin draws one
// buffer per replica per round.
func TestDirtyRoundPacksOnlyDirtyChunks(t *testing.T) {
	run := func(tracked bool, rounds int) Stats {
		t.Helper()
		ctrl, err := New(dirtyConfig(tracked)) // CheckpointInterval 0: only the rounds below
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan Stats, 1)
		go func() {
			stats, err := ctrl.Run()
			if !errors.Is(err, runtime.ErrStopped) {
				t.Errorf("Run: %v, want ErrStopped", err)
			}
			done <- stats
		}()
		for i := 0; i < rounds; i++ {
			var rerr error
			if err := ctrl.runOp(0, func() { rerr = ctrl.checkpointRound() }); err != nil || rerr != nil {
				t.Fatalf("round %d: %v / %v", i, err, rerr)
			}
		}
		ctrl.machine.Stop()
		stats := <-done
		if stats.Checkpoints != rounds || stats.SDCDetected != 0 {
			t.Fatalf("checkpoints=%d sdc=%d, want %d/0", stats.Checkpoints, stats.SDCDetected, rounds)
		}
		return stats
	}

	for _, rounds := range []int{4, 8} {
		s := run(true, rounds)
		// The first capture of each replica has nothing to splice from and
		// counts on neither side, so the ratio is the steady state's.
		chunks := float64(s.CaptureChunksPacked+s.CaptureChunksReused) / float64(2*(rounds-1))
		// The stream is the vector plus 16 bytes of counter and length.
		if want := math.Ceil((16<<20 + 16) / float64(checksum.DefaultChunkSize)); chunks != want {
			t.Fatalf("%d rounds: tracked captures handled %v chunks per task, want %v", rounds, chunks, want)
		}
		if math.Abs(s.DirtyRatio-0.10) > 1/chunks {
			t.Errorf("%d rounds: tracked DirtyRatio = %.4f, want 0.10 within one chunk (%.4f)", rounds, s.DirtyRatio, 1/chunks)
		}
		if s.CaptureBytesReused <= 0 {
			t.Errorf("%d rounds: tracked CaptureBytesReused = %d, want > 0", rounds, s.CaptureBytesReused)
		}
		if p := s.Pool; p.Gets != 4 || p.Drops != p.Puts {
			t.Errorf("%d rounds: tracked pool gets=%d drops=%d puts=%d, want 4 gets (first two rounds x 2 replicas) and drops == puts",
				rounds, p.Gets, p.Drops, p.Puts)
		}
		u := run(false, rounds)
		if u.DirtyRatio != 1 || u.CaptureChunksReused != 0 || u.CaptureBytesReused != 0 {
			t.Errorf("%d rounds: untracked twin: DirtyRatio=%v chunks reused=%d bytes reused=%d, want 1/0/0",
				rounds, u.DirtyRatio, u.CaptureChunksReused, u.CaptureBytesReused)
		}
		if u.Pool.Gets != int64(2*rounds) {
			t.Errorf("%d rounds: untracked pool gets=%d, want %d (one per replica per round)", rounds, u.Pool.Gets, 2*rounds)
		}
	}
}
