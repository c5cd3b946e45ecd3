package ckptstore

import (
	"os"
	"path/filepath"
	"testing"
)

func ckptOf(t *testing.T, fill byte, n int) *Checkpoint {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = fill
	}
	return Capture(data, 64, 1)
}

// putEpoch stores a complete epoch for a 2-replica, nodes×tasks shape.
func putEpoch(t *testing.T, s Store, epoch uint64, nodes, tasks int) {
	t.Helper()
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < nodes; n++ {
			for tk := 0; tk < tasks; tk++ {
				k := Key{Replica: rep, Node: n, Task: tk, Epoch: epoch}
				if err := s.Put(k, ckptOf(t, byte(epoch), 200)); err != nil {
					t.Fatalf("put %v: %v", k, err)
				}
			}
		}
	}
}

func TestEpochInventory(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) Store
	}{
		{"mem", func(t *testing.T) Store { return NewMem() }},
		{"disk", func(t *testing.T) Store {
			d, err := NewDisk(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk(t)
			putEpoch(t, s, 3, 2, 2)
			putEpoch(t, s, 5, 2, 2)
			// Epoch 7 is incomplete: one checkpoint only.
			if err := s.Put(Key{Replica: 0, Node: 0, Task: 0, Epoch: 7}, ckptOf(t, 7, 200)); err != nil {
				t.Fatal(err)
			}
			// Epoch 9 is a durable tier's epoch: one copy per compared
			// pair, replica 0's.
			for n := 0; n < 2; n++ {
				for tk := 0; tk < 2; tk++ {
					if err := s.Put(Key{Replica: 0, Node: n, Task: tk, Epoch: 9}, ckptOf(t, 9, 200)); err != nil {
						t.Fatal(err)
					}
				}
			}
			inv := EpochInventory(s)
			if inv[3] != 8 || inv[5] != 8 || inv[7] != 1 || inv[9] != 4 {
				t.Fatalf("inventory = %v, want 8/8/1/4 at epochs 3/5/7/9", inv)
			}
			complete := CompleteEpochs(s, 2, 4)
			if len(complete) != 2 || complete[0] != 3 || complete[1] != 5 {
				t.Fatalf("complete epochs of both replicas = %v, want [3 5]", complete)
			}
			// Counting replica 0 only, an epoch holding both replicas'
			// copies is complete as well.
			complete = CompleteEpochs(s, 1, 4)
			if len(complete) != 3 || complete[0] != 3 || complete[1] != 5 || complete[2] != 9 {
				t.Fatalf("complete epochs of replica 0 = %v, want [3 5 9]", complete)
			}
		})
	}
}

// TestDiskReopenRebuildsIndex is the resume-path contract: a Disk opened
// over a directory left behind by a killed process must see every intact
// checkpoint, skip garbage, and still catch payload corruption on Get.
func TestDiskReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	putEpoch(t, d1, 4, 2, 2)
	putEpoch(t, d1, 6, 2, 2)
	// Corrupt one payload at rest and drop garbage files in the directory.
	badKey := Key{Replica: 1, Node: 1, Task: 1, Epoch: 6}
	if err := d1.CorruptAtRest(badKey, 10, 3); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "not-a-checkpoint.txt"), []byte("noise"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "r0_n0_t0_e99.ckpt"), []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	complete := CompleteEpochs(d2, 2, 4)
	if len(complete) != 2 || complete[0] != 4 || complete[1] != 6 {
		t.Fatalf("complete epochs after reopen = %v, want [4 6]", complete)
	}
	// Every intact checkpoint round-trips with identical bytes.
	good, err := d2.Get(Key{Replica: 0, Node: 0, Task: 0, Epoch: 4})
	if err != nil {
		t.Fatalf("get after reopen: %v", err)
	}
	want, err := d1.Get(Key{Replica: 0, Node: 0, Task: 0, Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if string(good.Bytes()) != string(want.Bytes()) {
		t.Fatal("reopened payload differs from original")
	}
	// The at-rest corruption is still detected by the rebuilt index.
	if _, err := d2.Get(badKey); err == nil {
		t.Fatal("corrupted checkpoint readable after reopen, want ErrCorrupt")
	}
}
