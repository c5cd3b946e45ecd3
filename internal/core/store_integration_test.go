package core

import (
	"testing"

	"acr/internal/ckptstore"
	"acr/internal/runtime"
)

// The controller must commit, compare and restart exclusively through the
// configured store backend, and surface its counters in Stats.
func TestRunThroughConfiguredStoreBackends(t *testing.T) {
	backends := map[string]func(t *testing.T) ckptstore.Store{
		"mem": func(t *testing.T) ckptstore.Store { return ckptstore.NewMem() },
		"disk": func(t *testing.T) ckptstore.Store {
			st, err := ckptstore.NewDisk(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	}
	for name, mk := range backends {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(2, 2, 3000)
			cfg.Comparison = ChecksumCompare
			cfg.Store = mk(t)
			var ctrl *Controller
			pace(&cfg, &ctrl, 500, nil)
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 1, Node: 0, Task: 1})
			stats, err := ctrl.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.StoreName != name {
				t.Fatalf("StoreName = %q, want %q", stats.StoreName, name)
			}
			if stats.SDCDetected == 0 {
				t.Fatal("injected SDC was not detected")
			}
			// The two-phase compare must have localized the corruption to a
			// concrete chunk.
			if len(stats.LocalizedChunks) == 0 {
				t.Fatal("no localized chunk recorded for the detected SDC")
			}
			for _, chunk := range stats.LocalizedChunks {
				if chunk < 0 {
					t.Fatalf("unlocalized chunk index %d in %v", chunk, stats.LocalizedChunks)
				}
			}
			if stats.Store.Puts == 0 || stats.Store.BytesWritten == 0 {
				t.Fatalf("store counters not populated: %+v", stats.Store)
			}
			if stats.Store.Compares == 0 || stats.Store.Mismatches == 0 {
				t.Fatalf("compare counters not populated: %+v", stats.Store)
			}
			if stats.Store.CompareTime <= 0 {
				t.Fatalf("compare time not accrued: %+v", stats.Store)
			}
			verifyFinalState(t, ctrl, 2, 2, 3000)
		})
	}
}

// Over a link, checksum rounds decide on the digest that crossed it: the
// store serves Gets, never a Compare, so Stats.Store's compare counters stay
// zero while SDCDetected and LocalizedChunks carry the verdicts.
func TestLinkChecksumVerdictsBypassStoreCompare(t *testing.T) {
	cfg := baseConfig(2, 2, 3000)
	cfg.Comparison = ChecksumCompare
	cfg.Exchange = &ExchangeConfig{Loss: 0.02, Seed: 3, ShipCheckpoints: true}
	var ctrl *Controller
	pace(&cfg, &ctrl, 500, nil)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 1, Node: 0, Task: 1})
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SDCDetected != 1 || len(stats.LocalizedChunks) != 1 || stats.LocalizedChunks[0] < 0 {
		t.Fatalf("sdc detected %d, localized chunks %v: want the injected SDC found and localized",
			stats.SDCDetected, stats.LocalizedChunks)
	}
	if stats.Checkpoints == 0 {
		t.Fatal("no round committed")
	}
	if stats.Store.Compares != 0 || stats.Store.Mismatches != 0 || stats.Store.Gets == 0 {
		t.Fatalf("store counters %+v: link-path verdicts must cost Gets, not Compares", stats.Store)
	}
	verifyFinalState(t, ctrl, 2, 2, 3000)
}
