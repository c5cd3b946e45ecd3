package core

import (
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"acr/internal/chaos/pacing"
	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
)

// TestLadderRungs walks the recovery ladder over every tier set the
// controller can be configured with, under escalating damage, and pins the
// exact rung each restore lands on and the depth it books.
//
// Every row is commit-paced (a round every 500 of its 6,000 iterations, see
// pacing.Pacer), flushes each tier every 2nd commit with the default
// retention of 2 and loses a buddy pair at commit killAt, so (no round aborts
// before the kill — epochs equal commit numbers):
//
//	killAt 3: committed epoch 3 is in memory only; the tiers hold {2}
//	killAt 4: committed epoch 4 is itself flushed; the tiers hold {2, 4}
//	killAt 5: committed epoch 5 is in memory only; the tiers hold {2, 4}
//
// Both replicas lose the node's tier-0 copies, so every row books two
// restores. The tier stores are disks: their read path re-verifies the
// payload root, which is what makes at-rest corruption a skipped candidate
// rather than a silent restore.
func TestLadderRungs(t *testing.T) {
	const nodes, tasks, iters = 2, 2, 6000
	const flush, remote = 1, 2 // tier-set / damage bits
	rows := []struct {
		name   string
		tiers  int
		killAt int
		// Damage done at the kill commit, before the kill: corrupt one pair
		// copy of the tier's newest epoch at rest, which both replicas
		// restore from; wipe the tier's store entirely (its index still
		// lists the epochs — every candidate turns out unusable).
		corrupt, wipe int
		want          [4]int
		depth         int
		unrecoverable bool
	}{
		{name: "flush/unflushed commit", tiers: flush, killAt: 3, want: [4]int{0, 0, 2, 0}, depth: 1},
		{name: "remote/unflushed commit", tiers: remote, killAt: 3, want: [4]int{0, 0, 0, 2}, depth: 1},
		{name: "both/unflushed commit", tiers: flush | remote, killAt: 3, want: [4]int{0, 0, 2, 0}, depth: 1},

		{name: "flush/flushed commit", tiers: flush, killAt: 4, want: [4]int{0, 2, 0, 0}, depth: 0},
		{name: "remote/flushed commit", tiers: remote, killAt: 4, want: [4]int{0, 0, 0, 2}, depth: 0},

		{name: "flush/newest corrupt", tiers: flush, killAt: 5, corrupt: flush, want: [4]int{0, 0, 2, 0}, depth: 3},
		{name: "remote/newest corrupt", tiers: remote, killAt: 5, corrupt: remote, want: [4]int{0, 0, 0, 2}, depth: 3},
		// An older local epoch beats a newer remote one: the ladder exhausts
		// a tier before it pays for the next.
		{name: "both/newest local corrupt", tiers: flush | remote, killAt: 5, corrupt: flush, want: [4]int{0, 0, 2, 0}, depth: 3},

		{name: "flush/tier unusable", tiers: flush, killAt: 5, wipe: flush, unrecoverable: true},
		{name: "remote/tier unusable", tiers: remote, killAt: 5, wipe: remote, unrecoverable: true},
		{name: "both/flush unusable", tiers: flush | remote, killAt: 5, wipe: flush, want: [4]int{0, 0, 0, 2}, depth: 1},
		{name: "both/flush unusable, newest remote corrupt", tiers: flush | remote, killAt: 5, wipe: flush, corrupt: remote, want: [4]int{0, 0, 0, 2}, depth: 3},
		{name: "both/both unusable", tiers: flush | remote, killAt: 5, wipe: flush | remote, unrecoverable: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := baseConfig(nodes, tasks, iters)
			cfg.Spares = 4
			stores := map[int]*ckptstore.Disk{}
			for _, bit := range []int{flush, remote} {
				if row.tiers&bit == 0 {
					continue
				}
				d, err := ckptstore.NewDisk(t.TempDir(), nil)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				stores[bit] = d
			}
			if d := stores[flush]; d != nil {
				cfg.FlushEvery, cfg.FlushStore = 2, d
			}
			if d := stores[remote]; d != nil {
				cfg.RemoteFlushEvery, cfg.RemoteStore = 2, d
			}
			var ctrl *Controller
			var commits atomic.Int64
			var pacer *pacing.Pacer
			kill := killPairAtCommit(&ctrl, 1, row.killAt)
			pacer = pace(&cfg, &ctrl, 500, point.HookFunc(func(id point.ID, info *point.Info) {
				if id == point.CoreCommit && commits.Add(1) == int64(row.killAt) {
					// The writers of every earlier commit have settled (a
					// chaos hook joins them before each round), so the
					// damage lands on complete epochs.
					newest := uint64(row.killAt - 1)
					for bit, d := range stores {
						if row.corrupt&bit != 0 {
							if err := d.CorruptAtRest(ckptstore.Key{Replica: 0, Node: 0, Task: 1, Epoch: newest}, 16, 2); err != nil {
								t.Errorf("corrupt epoch %d at rest: %v", newest, err)
							}
						}
						if row.wipe&bit != 0 {
							d.Evict(math.MaxUint64)
						}
					}
					pacer.Stop() // recovery must find no task held by the pacer
				}
				kill.Fire(id, info)
			}))
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := ctrl.Run()
			if stats.BuddyPairLosses != 1 {
				t.Fatalf("buddy pair losses = %d, want 1 (the kill at commit %d never fired?)", stats.BuddyPairLosses, row.killAt)
			}
			if row.unrecoverable {
				if !errors.Is(err, ErrUnrecoverable) {
					t.Fatalf("err = %v, want ErrUnrecoverable: every configured tier is empty", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if stats.TierRecoveries != row.want {
				t.Errorf("tier recoveries = %v, want %v", stats.TierRecoveries, row.want)
			}
			if want := []int{row.depth, row.depth}; !reflect.DeepEqual(stats.RollbackDepths, want) {
				t.Errorf("rollback depths = %v, want %v", stats.RollbackDepths, want)
			}
			if stats.MaxRollbackDepth != row.depth {
				t.Errorf("max rollback depth = %d, want %d", stats.MaxRollbackDepth, row.depth)
			}
			verifyFinalState(t, ctrl, nodes, tasks, iters)
		})
	}
}
