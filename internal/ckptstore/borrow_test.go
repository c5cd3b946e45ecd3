package ckptstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"acr/internal/chaos/point"
)

func TestPoolPutDropsBorrowed(t *testing.T) {
	p := NewPool(4)
	ck := poolCkpt(128)
	ck.Borrow()
	ck.Borrow()
	p.Put(ck)
	ck.Release()
	p.Put(ck)
	if p.Len() != 0 {
		t.Fatalf("borrowed checkpoint entered the pool (len %d)", p.Len())
	}
	if ctrs := p.Counters(); ctrs.Drops != 2 || ctrs.Puts != 2 {
		t.Fatalf("counters = %+v, want Puts=2 Drops=2", ctrs)
	}
	ck.Release()
	p.Put(ck)
	if p.Len() != 1 {
		t.Fatalf("released checkpoint rejected (len %d)", p.Len())
	}
}

// TestBorrowedPutKeepsCopy: a store that keeps a Put checkpoint keeps a
// copy of a borrowed one, and a hook flipping the at-rest copy on
// ckptstore.write flips that copy, never the lender's buffer. An unborrowed
// checkpoint is still kept by reference.
func TestBorrowedPutKeepsCopy(t *testing.T) {
	flip := point.HookFunc(func(id point.ID, info *point.Info) {
		if id == point.StoreWrite {
			info.Payload.(*Checkpoint).MutableBytes()[7] ^= 0x10
		}
	})
	for name, st := range map[string]Store{"mem": NewMem(), "hooked-mem": WithHook(NewMem(), flip)} {
		t.Run(name, func(t *testing.T) {
			lent := Capture(randData(t, 5, 16<<10), testChunk, 1)
			want := bytes.Clone(lent.Bytes())
			k := Key{Epoch: 1}
			lent.Borrow()
			if err := st.Put(k, lent); err != nil {
				t.Fatal(err)
			}
			lent.Release()
			if !bytes.Equal(lent.Bytes(), want) {
				t.Fatal("the lender's payload changed under a Put")
			}
			got, err := st.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if got == lent || &got.Bytes()[0] == &lent.Bytes()[0] {
				t.Fatal("the store kept the borrowed buffer instead of a copy")
			}
			if got.Borrowed() {
				t.Fatal("the stored copy is marked borrowed")
			}
			if flipped := !bytes.Equal(got.Bytes(), want); flipped != (name == "hooked-mem") {
				t.Fatalf("stored copy differs from the payload: %v, want %v", flipped, name == "hooked-mem")
			}
			owned := Capture(randData(t, 6, 4<<10), testChunk, 1)
			if err := st.Put(Key{Epoch: 2}, owned); err != nil {
				t.Fatal(err)
			}
			if got, _ := st.Get(Key{Epoch: 2}); got != owned {
				t.Fatal("an unborrowed checkpoint was copied")
			}
		})
	}
}

// TestDiskPutFileLayout pins the file format: Put writes the header and
// the payload straight to the file, and the bytes are exactly the staged
// layout — magic, chunk size, root, sum count, sums (all little-endian
// uint64) and the payload.
func TestDiskPutFileLayout(t *testing.T) {
	st, err := NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range []int{0, 1, testChunk, 3*testChunk + 17} {
		ck := Capture(randData(t, int64(i), size), testChunk, 1)
		k := Key{Replica: i % 2, Node: i, Task: 1, Epoch: uint64(i + 1)}
		ck.Borrow()
		if err := st.Put(k, ck); err != nil {
			t.Fatal(err)
		}
		ck.Release()
		var want []byte
		want = append(want, diskMagic...)
		want = binary.LittleEndian.AppendUint64(want, uint64(ck.ChunkSize))
		want = binary.LittleEndian.AppendUint64(want, ck.Root)
		want = binary.LittleEndian.AppendUint64(want, uint64(len(ck.Sums)))
		for _, sum := range ck.Sums {
			want = binary.LittleEndian.AppendUint64(want, sum)
		}
		want = append(want, ck.Bytes()...)
		got, err := os.ReadFile(st.fileFor(k))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: file is %d bytes, differs from the %d-byte staged layout", size, len(got), len(want))
		}
		back, err := st.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if back.Root != ck.Root || !bytes.Equal(back.Bytes(), ck.Bytes()) {
			t.Fatalf("size %d: read back a different checkpoint", size)
		}
	}
}
