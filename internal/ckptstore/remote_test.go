package ckptstore

import (
	"errors"
	"fmt"
	"testing"

	"acr/internal/chaos/point"
)

func remoteCk(t testing.TB, seed int64) *Checkpoint {
	t.Helper()
	return Capture(randData(t, seed, 64<<10+9), testChunk, 2)
}

func TestRemotePerfectRoundTrip(t *testing.T) {
	r := NewRemote(RemoteOptions{})
	ck := remoteCk(t, 1)
	k := Key{Replica: 1, Node: 2, Task: 3, Epoch: 7}
	if err := r.Put(k, ck); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != ck.Root {
		t.Fatalf("root mismatch: %#x != %#x", got.Root, ck.Root)
	}
	if _, err := r.Get(Key{Epoch: 99}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: got %v, want ErrNotFound", err)
	}
	if n := r.Evict(8); n != 1 {
		t.Fatalf("evict: got %d, want 1", n)
	}
	if keys := r.Keys(); len(keys) != 0 {
		t.Fatalf("keys after evict: %v", keys)
	}
	c := r.Counters()
	if c.Puts != 1 || c.Gets != 1 || c.BytesEvicted == 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// Identical options must yield an identical fault schedule for an
// identical op sequence — the property the deterministic soak campaigns
// lean on.
func TestRemoteSeededFaultScheduleDeterministic(t *testing.T) {
	opts := RemoteOptions{TimeoutRate: 0.3, ThrottleRate: 0.2, tornWriteRate: 0.1, Seed: 42}
	ck := remoteCk(t, 2)
	schedule := func() []string {
		r := NewRemote(opts)
		var out []string
		for i := 0; i < 40; i++ {
			k := Key{Epoch: uint64(i)}
			if err := r.Put(k, ck); err != nil {
				out = append(out, fmt.Sprintf("put%d:%v", i, errors.Unwrap(err)))
				continue
			}
			if _, err := r.Get(k); err != nil {
				out = append(out, fmt.Sprintf("get%d:%v", i, errors.Unwrap(err)))
			}
		}
		return out
	}
	a, b := schedule(), schedule()
	if len(a) == 0 {
		t.Fatal("schedule produced no faults; rates too low for the test to mean anything")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("fault schedule not reproducible:\n a: %v\n b: %v", a, b)
	}
}

// A torn write reports a transient timeout but leaves a partial object
// shadowing the key; the read path must surface it as detected damage
// (ErrCorrupt), and a successful re-Put must overwrite it.
func TestRemoteTornWriteShadowsKeyUntilRePut(t *testing.T) {
	r := NewRemote(RemoteOptions{tornWriteRate: 1})
	ck := remoteCk(t, 3)
	k := Key{Epoch: 1}
	err := r.Put(k, ck)
	if !errors.Is(err, ErrRemoteTimeout) || !IsTransientRemote(err) {
		t.Fatalf("torn put: got %v, want transient ErrRemoteTimeout", err)
	}
	if _, gerr := r.Get(k); !errors.Is(gerr, ErrCorrupt) {
		t.Fatalf("read of torn object: got %v, want ErrCorrupt", gerr)
	}
	r.opts.tornWriteRate = 0 // the retry lands cleanly this time
	if err := r.Put(k, ck); err != nil {
		t.Fatal(err)
	}
	got, gerr := r.Get(k)
	if gerr != nil || got.Root != ck.Root {
		t.Fatalf("re-put did not overwrite the torn object: %v", gerr)
	}
}

// At-rest corruption discovered by a read is sticky: once damaged, the
// object stays damaged even if no further corruption rolls hit.
func TestRemoteReadCorruptionSticky(t *testing.T) {
	r := NewRemote(RemoteOptions{readCorruptRate: 1})
	k := Key{Epoch: 1}
	if err := r.Put(k, remoteCk(t, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(k); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("first read: got %v, want ErrCorrupt", err)
	}
	r.opts.readCorruptRate = 0
	if _, err := r.Get(k); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit rot healed itself: got %v, want sticky ErrCorrupt", err)
	}
}

func TestRemoteDarkModes(t *testing.T) {
	r := NewRemote(RemoteOptions{})
	ck := remoteCk(t, 5)
	k := Key{Epoch: 1}

	r.SetDark(true)
	if err := r.Put(k, ck); !errors.Is(err, ErrRemoteUnavailable) || !IsTransientRemote(err) {
		t.Fatalf("dark put: got %v, want transient ErrRemoteUnavailable", err)
	}
	if _, err := r.Get(k); !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("dark get: got %v, want ErrRemoteUnavailable", err)
	}
	if err := r.Probe(); !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("dark probe: got %v, want ErrRemoteUnavailable", err)
	}
	r.SetDark(false)
	if err := r.Put(k, ck); err != nil {
		t.Fatalf("healed put: %v", err)
	}

	// Bounded outage: exactly n ops fail, then the remote self-heals.
	r.SetDarkFor(2)
	if err := r.Probe(); err == nil {
		t.Fatal("probe 1 during bounded outage should fail")
	}
	if err := r.Put(k, ck); err == nil {
		t.Fatal("op 2 during bounded outage should fail")
	}
	if r.Dark() {
		t.Fatal("remote should have self-healed after 2 dark ops")
	}
	if err := r.Put(k, ck); err != nil {
		t.Fatalf("post-outage put: %v", err)
	}
}

// The injection hook sees remote.put / remote.get before each op and can
// force-fail one via Info.Drop; dark transitions fire remote.dark with the
// op budget (entry) and -1 (recovery).
func TestRemoteInjectionHook(t *testing.T) {
	type fired struct {
		id   point.ID
		iter int
	}
	var log []fired
	dropNext := false
	hook := point.HookFunc(func(id point.ID, info *point.Info) {
		log = append(log, fired{id, info.Iter})
		if dropNext {
			info.Drop = true
			dropNext = false
		}
	})
	r := NewRemote(RemoteOptions{Hook: hook})
	ck := remoteCk(t, 6)
	k := Key{Epoch: 1}

	dropNext = true
	if err := r.Put(k, ck); !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("dropped put: got %v, want ErrRemoteUnavailable", err)
	}
	if err := r.Put(k, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(k); err != nil {
		t.Fatal(err)
	}
	r.SetDarkFor(1)
	_ = r.Probe() // burns the outage, fires the heal transition

	want := []fired{
		{point.RemotePut, 0}, {point.RemotePut, 0}, {point.RemoteGet, 0},
		{point.RemoteDark, 1}, {point.RemoteDark, -1},
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("hook log:\n got  %v\n want %v", log, want)
	}
}

// Dark reports whether the remote is currently dark.
func (r *Remote) Dark() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dark
}
