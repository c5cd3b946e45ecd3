package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/checksum"
	"acr/internal/consensus"
	"acr/internal/runtime"
)

// linkConfig is a 2x2 job of endless ring tasks (~3 KB each, 256-byte
// chunks, so a task is a dozen chunks) whose live rounds ship over a link
// without faults of its own.
func linkConfig(comparison Comparison, hook point.Hook) Config {
	return Config{NodesPerReplica: 2, TasksPerNode: 2, Factory: benchFactory(64), Comparison: comparison,
		ChunkSize: 256, Exchange: &ExchangeConfig{ShipCheckpoints: true}, Chaos: hook}
}

// liveRound runs one checkpointRound of cfg's job on a started machine, with
// an SDC queued at each given address, and returns the controller with its
// machine stopped.
func liveRound(t *testing.T, cfg Config, sdc ...runtime.Addr) *Controller {
	t.Helper()
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sdc {
		ctrl.InjectSDCAtNextCheckpoint(a)
	}
	ctrl.start = time.Now()
	ctrl.machine.Start()
	defer ctrl.machine.Stop()
	if err := ctrl.checkpointRound(); err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// TestChecksumVerdictRestsOnReceivedDigest changes one chunk sum of one
// task's digest after it arrived (refolding the root, so the receiver's
// check would have passed it): the round reports a mismatch localized to
// exactly that chunk of that task, although both replicas' stored
// checkpoints are identical — the verdict is decided on what crossed the
// link, not on the store's replica 0 copy.
func TestChecksumVerdictRestsOnReceivedDigest(t *testing.T) {
	const tasks, victim, chunk = 2, 3, 5 // victim is n1/t1
	ctrl, err := New(linkConfig(ChecksumCompare, nil))
	if err != nil {
		t.Fatal(err)
	}
	ship := func(n, task int) error {
		if err := ctrl.shipTask(1, n, task); err != nil {
			return err
		}
		if n*tasks+task == victim {
			d := &ctrl.digests[victim].digest
			d.Sums[chunk] ^= 1
			d.Root = checksum.ChunkRoot(d.Sums)
		}
		return nil
	}
	mismatch, got, err := ctrl.runRound(1, consensus.BothReplicas, ship, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("checksum mismatch at chunk %d at n1/t1", chunk); mismatch != want || got != chunk {
		t.Fatalf("verdict (%q, chunk %d), want (%q, chunk %d)", mismatch, got, want, chunk)
	}
	res, err := ctrl.store.Compare(ctrl.key(0, 1, 1, 1), ctrl.key(1, 1, 1, 1))
	if err != nil || !res.Match {
		t.Fatalf("the stored replicas must be identical: %v, %v", res, err)
	}
}

// TestDigestFrameDropIsRetransmitted drops the first digest frame on the
// wire: it goes out again, and the round ends with the verdict a lossless
// link gives it — committed when clean, the same localized SDC otherwise.
func TestDigestFrameDropIsRetransmitted(t *testing.T) {
	sdc := runtime.Addr{Replica: 1, Node: 0, Task: 1}
	for _, tc := range []struct {
		name string
		sdc  []runtime.Addr
	}{{"clean", nil}, {"sdc", []runtime.Addr{sdc}}} {
		t.Run(tc.name, func(t *testing.T) {
			ref := liveRound(t, linkConfig(ChecksumCompare, nil), tc.sdc...)
			digestFirings, dropped := 0, false
			hook := point.HookFunc(func(id point.ID, info *point.Info) {
				if id != point.NetFrame || info.Iter != digestFrame {
					return
				}
				digestFirings++
				if !dropped {
					dropped, info.Drop = true, true
				}
			})
			ctrl := liveRound(t, linkConfig(ChecksumCompare, hook), tc.sdc...)
			if ctrl.stats.Checkpoints != ref.stats.Checkpoints || ctrl.stats.SDCDetected != ref.stats.SDCDetected ||
				fmt.Sprint(ctrl.stats.LocalizedChunks) != fmt.Sprint(ref.stats.LocalizedChunks) {
				t.Fatalf("with a dropped digest: checkpoints %d sdc %d chunks %v; lossless: %d %d %v",
					ctrl.stats.Checkpoints, ctrl.stats.SDCDetected, ctrl.stats.LocalizedChunks,
					ref.stats.Checkpoints, ref.stats.SDCDetected, ref.stats.LocalizedChunks)
			}
			if want := 1 - len(tc.sdc); ref.stats.Checkpoints != want || ref.stats.SDCDetected != len(tc.sdc) {
				t.Fatalf("lossless round: checkpoints %d sdc %d, want %d and %d", ref.stats.Checkpoints, ref.stats.SDCDetected, want, len(tc.sdc))
			}
			const tasks = 4
			if r := ctrl.exch.retries.Load(); r != 1 {
				t.Errorf("retries = %d, want the dropped digest resent once", r)
			}
			// Every digest and its ack, plus the dropped transmission.
			if digestFirings != 2*tasks+1 {
				t.Errorf("%d digest-frame firings, want %d", digestFirings, 2*tasks+1)
			}
		})
	}
}

// TestChecksumRoundShipsOneFramePerTask: on a lossless link a clean
// checksum round of N tasks puts exactly 2N+2 frames on the wire (one
// digest and its ack per task, the compare-result message and its ack) and
// ships no checkpoint chunk, while full comparison still ships every chunk
// of every task.
func TestChecksumRoundShipsOneFramePerTask(t *testing.T) {
	const tasks = 4
	ctrl := liveRound(t, linkConfig(ChecksumCompare, nil))
	if ctrl.stats.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want the clean round committed", ctrl.stats.Checkpoints)
	}
	if f, s := ctrl.exch.frames.Load(), ctrl.exch.chunksShipped.Load(); f != 2*tasks+2 || s != 0 {
		t.Errorf("checksum round: %d frames, %d chunks shipped; want %d and 0", f, s, 2*tasks+2)
	}

	ctrl = liveRound(t, linkConfig(FullCompare, nil))
	if ctrl.stats.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want the clean round committed", ctrl.stats.Checkpoints)
	}
	var chunks int64
	for n := 0; n < 2; n++ {
		for task := 0; task < 2; task++ {
			ck, err := ctrl.store.Get(ctrl.key(0, n, task, ctrl.committedEpoch))
			if err != nil {
				t.Fatal(err)
			}
			chunks += int64(ck.NumChunks())
		}
	}
	if f, s := ctrl.exch.frames.Load(), ctrl.exch.chunksShipped.Load(); s != chunks || f != 2*chunks+2 {
		t.Errorf("full round: %d frames, %d chunks shipped; want %d and every one of the %d chunks", f, s, 2*chunks+2, chunks)
	}
}

// TestDigestRootMustFold: a digest whose root does not fold from its chunk
// sums fails the transfer with ErrExchange and leaves the slot without an
// epoch, so the compare stage refuses to decide on it.
func TestDigestRootMustFold(t *testing.T) {
	ctrl, err := New(linkConfig(ChecksumCompare, nil))
	if err != nil {
		t.Fatal(err)
	}
	d := testCheckpoint(7, 1).Digest()
	slot := &ctrl.digests[0]
	if err := ctrl.exch.shipDigest(1, 0, 0, d, slot); err != nil || slot.epoch != 1 {
		t.Fatalf("a sound digest: err %v, slot epoch %d", err, slot.epoch)
	}
	d.Root ^= 1
	err = ctrl.exch.shipDigest(2, 0, 0, d, slot)
	if !errors.Is(err, ErrExchange) || !strings.Contains(err.Error(), "root does not fold") {
		t.Fatalf("err = %v, want ErrExchange for the unfolding root", err)
	}
	if slot.epoch != 0 {
		t.Fatalf("slot epoch %d after a failed transfer, want 0", slot.epoch)
	}
	if _, _, err := ctrl.compareTask(0, 0, 2); err == nil || !strings.Contains(err.Error(), "no digest arrived") {
		t.Fatalf("compare on the rejected digest: err = %v, want a refusal", err)
	}
}
