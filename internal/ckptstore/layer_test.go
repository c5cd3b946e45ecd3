package ckptstore

import (
	"testing"

	"acr/internal/chaos/point"
)

// sixMethodStore is a Store with neither optional capability (no Keys, no
// DropNode, no Inner) that counts the calls reaching it.
type sixMethodStore struct {
	puts, gets, compares, evicts, counters int
}

func (s *sixMethodStore) Put(Key, *Checkpoint) error { s.puts++; return nil }
func (s *sixMethodStore) Get(Key) (*Checkpoint, error) {
	s.gets++
	return Capture([]byte{1}, 0, 1), nil
}
func (s *sixMethodStore) Compare(a, b Key) (CompareResult, error) {
	s.compares++
	return CompareResult{Match: true, Chunk: -1}, nil
}
func (s *sixMethodStore) Evict(uint64) int   { s.evicts++; return 7 }
func (s *sixMethodStore) Counters() Counters { s.counters++; return Counters{Puts: 42} }
func (s *sixMethodStore) Name() string       { return "six" }

// foreignWrapper is a wrapper written outside this package's conventions:
// it forwards by hand and exposes only Inner() — what bench/stores.go's
// timedStore looks like to As.
type foreignWrapper struct{ inner Store }

func (f foreignWrapper) Put(k Key, ck *Checkpoint) error         { return f.inner.Put(k, ck) }
func (f foreignWrapper) Get(k Key) (*Checkpoint, error)          { return f.inner.Get(k) }
func (f foreignWrapper) Compare(a, b Key) (CompareResult, error) { return f.inner.Compare(a, b) }
func (f foreignWrapper) Evict(e uint64) int                      { return f.inner.Evict(e) }
func (f foreignWrapper) Counters() Counters                      { return f.inner.Counters() }
func (f foreignWrapper) Name() string                            { return "foreign" }
func (f foreignWrapper) Inner() Store                            { return f.inner }

// TestLayerWrappers is the one place the shared forwarding is checked: each
// Layer-based wrapper in this package, over a store with both optional
// capabilities and over one with neither.
func TestLayerWrappers(t *testing.T) {
	noop := point.HookFunc(func(point.ID, *point.Info) {})
	wrappers := map[string]func(Store) Store{
		"layer":     func(s Store) Store { return Layer{s} },
		"hooked":    func(s Store) Store { return WithHook(s, noop) },
		"resilient": func(s Store) Store { return NewResilient(s, ResilientOptions{}) },
	}
	for name, wrap := range wrappers {
		t.Run(name+"/mem", func(t *testing.T) {
			mem := NewMem()
			putEpoch(t, mem, 1, 1, 1) // replicas 0 and 1 of node 0, task 0
			w := wrap(mem)
			if got := len(w.(Enumerator).Keys()); got != 2 {
				t.Errorf("Keys through wrapper = %d, want 2", got)
			}
			if in := w.(interface{ Inner() Store }).Inner(); in != Store(mem) {
				t.Errorf("Inner = %v, want the wrapped Mem", in)
			}
			if res, err := w.Compare(Key{Epoch: 1}, Key{Replica: 1, Epoch: 1}); err != nil || !res.Match {
				t.Errorf("Compare through wrapper = %v, %v", res, err)
			}
			if got := w.Counters().Puts; got != 2 {
				t.Errorf("Counters().Puts through wrapper = %d, want the inner store's 2", got)
			}
			if got := w.(Volatile).DropNode(0, 0); got != 1 {
				t.Errorf("DropNode through wrapper = %d, want 1", got)
			}
			if got := w.Evict(2); got != 1 {
				t.Errorf("Evict through wrapper = %d, want the 1 surviving checkpoint", got)
			}
		})
		t.Run(name+"/six-method", func(t *testing.T) {
			six := &sixMethodStore{}
			w := wrap(six)
			if keys := w.(Enumerator).Keys(); keys != nil {
				t.Errorf("Keys over a non-enumerable store = %v, want nil", keys)
			}
			if got := w.(Volatile).DropNode(0, 0); got != 0 {
				t.Errorf("DropNode over a non-volatile store = %d, want 0", got)
			}
			if in := w.(interface{ Inner() Store }).Inner(); in != Store(six) {
				t.Errorf("Inner = %v, want the wrapped stub", in)
			}
			if _, err := w.Compare(Key{}, Key{}); err != nil {
				t.Errorf("Compare: %v", err)
			}
			if got := w.Evict(9); got != 7 {
				t.Errorf("Evict = %d, want the inner store's 7", got)
			}
			if got := w.Counters().Puts; got != 42 {
				t.Errorf("Counters().Puts = %d, want the inner store's 42", got)
			}
			// Resilient's Compare is policy (two resilient Gets), the others
			// forward it; either way Evict and Counters reach the stub.
			if six.evicts != 1 || six.counters != 1 || six.compares+six.gets == 0 {
				t.Errorf("calls reaching the inner store: %+v", *six)
			}
		})
	}
	mem := NewMem()
	if WithHook(mem, nil) != Store(mem) {
		t.Error("WithHook(nil) wrapped the store")
	}
}

// TestAs: a concrete backend and a capability interface are both found
// through a three-deep stack whose middle wrapper only implements Inner().
func TestAs(t *testing.T) {
	disk, err := NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	noop := point.HookFunc(func(point.ID, *point.Info) {})
	res := NewResilient(disk, ResilientOptions{})
	defer res.Close()
	stack := WithHook(foreignWrapper{Layer{res}}, noop)

	if d, ok := As[*Disk](stack); !ok || d != disk {
		t.Errorf("As[*Disk] = %v, %v; want the disk at the bottom", d, ok)
	}
	if r, ok := As[ResilientReporter](stack); !ok || r != ResilientReporter(res) {
		t.Errorf("As[ResilientReporter] = %v, %v; want the resilient layer", r, ok)
	}
	if _, ok := ResilientStatsOf(stack); !ok {
		t.Error("ResilientStatsOf missed the resilient layer")
	}
	mem := NewMem()
	if _, ok := As[*Disk](mem); ok {
		t.Error("As[*Disk] found a disk in a bare Mem")
	}
	if _, ok := As[ResilientReporter](mem); ok {
		t.Error("As[ResilientReporter] found a reporter in a bare Mem")
	}
	if m, ok := As[*Mem](mem); !ok || m != mem {
		t.Error("As[*Mem] on a bare Mem did not return it")
	}
	if _, ok := As[*Disk](nil); ok {
		t.Error("As on a nil store reported true")
	}
}
