package fleet

import (
	"sync"
	"testing"
	"time"

	"acr/internal/ckptstore"
	"acr/internal/pup"
)

func ckptOf(t *testing.T, size int) *ckptstore.Checkpoint {
	t.Helper()
	buf := make([]float64, size/8)
	for i := range buf {
		buf[i] = float64(i)
	}
	data, err := pup.Pack(&payload{Vals: buf})
	if err != nil {
		t.Fatal(err)
	}
	return ckptstore.Capture(data, 0, 1)
}

type payload struct{ Vals []float64 }

func (p *payload) Pup(pp *pup.PUPer) {
	pp.Label("vals")
	pp.Float64s(&p.Vals)
}

// TestArbiterThrottlesWrites: pushing several seconds of budget through the
// bucket must take at least (bytes/budget - burst) of wall clock.
func TestArbiterThrottlesWrites(t *testing.T) {
	const budget = 4 << 20 // 4 MiB/s, 4 MiB burst
	a := NewArbiter(budget, 0)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.AcquireWrite(4 << 20)
			a.Release()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 12 MiB through a 4 MiB/s bucket with a 4 MiB burst: >= ~2s. Accept
	// 1.5s to stay robust under slow CI clocks.
	if elapsed < 1500*time.Millisecond {
		t.Fatalf("3x4MiB through 4MiB/s finished in %v, bucket not throttling", elapsed)
	}
	st := a.Stats()
	if st.WriteBytes != 12<<20 {
		t.Errorf("write bytes = %d, want %d", st.WriteBytes, 12<<20)
	}
	if st.WriteWaits == 0 {
		t.Error("no writer ever waited")
	}
}

// TestArbiterReadsBypassBudget: with the budget fully in debt, a recovery
// read must not block.
func TestArbiterReadsBypassBudget(t *testing.T) {
	a := NewArbiter(1<<20, 0)
	a.AcquireWrite(32 << 20) // drive the bucket deep into debt
	a.Release()
	done := make(chan struct{})
	go func() {
		a.NoteRead()
		a.Release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("read blocked behind write debt")
	}
	if got := a.Stats().ReadBypasses; got != 1 {
		t.Errorf("read bypasses = %d, want 1", got)
	}
}

// TestArbiterSlotsLimitConcurrency: the slot channel must keep in-flight
// transfers at or below the limit.
func TestArbiterSlotsLimitConcurrency(t *testing.T) {
	a := NewArbiter(0, 2)
	var mu sync.Mutex
	inflight, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.AcquireWrite(1)
			mu.Lock()
			inflight++
			if inflight > peak {
				peak = inflight
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			inflight--
			mu.Unlock()
			a.Release()
		}()
	}
	wg.Wait()
	if peak > 2 {
		t.Fatalf("peak in-flight transfers = %d, want <= 2", peak)
	}
}

// TestArbitratedStoreDelegates: the wrapper must deliver identical bytes,
// advertise itself in the store name, and stay transparent to enumeration
// and ckptstore.As (the forwarding itself is ckptstore.Layer's, tested
// there).
func TestArbitratedStoreDelegates(t *testing.T) {
	a := NewArbiter(0, 0)
	mem := ckptstore.NewMem()
	st := a.Wrap(mem)
	if st.Name() != "arb(mem)" {
		t.Fatalf("name = %q, want arb(mem)", st.Name())
	}
	k := ckptstore.Key{Replica: 0, Node: 1, Task: 2, Epoch: 3}
	ck := ckptOf(t, 64<<10)
	if err := st.Put(k, ck); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Bytes()) != string(ck.Bytes()) {
		t.Fatal("round-trip bytes differ")
	}
	stats := a.Stats()
	if stats.WriteBytes != int64(ck.Len()) {
		t.Errorf("write bytes = %d, want %d", stats.WriteBytes, ck.Len())
	}
	if stats.ReadBypasses != 1 {
		t.Errorf("read bypasses = %d, want 1", stats.ReadBypasses)
	}
	if got := len(st.(ckptstore.Enumerator).Keys()); got != 1 {
		t.Errorf("keys through the arbiter = %d, want 1", got)
	}
	if m, ok := ckptstore.As[*ckptstore.Mem](st); !ok || m != mem {
		t.Error("ckptstore.As does not see the Mem under the arbiter")
	}
}
