package ckptstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"acr/internal/chaos/point"
)

// Remote is a simulated object-store checkpoint tier: the kind of shared
// remote storage (S3, GCS, a parallel file system export) a production
// fleet flushes checkpoints to — and the least reliable component in the
// checkpoint path. It implements Store over an in-memory object map while
// modeling the failure modes a real remote exhibits:
//
//   - per-op latency (a base round trip plus a per-KiB transfer cost),
//   - seeded transient faults: request timeouts and throttling rejections,
//   - torn multi-chunk writes: an upload that times out mid-transfer
//     leaves a partial object behind, which later reads surface as
//     ErrCorrupt (the object exists but fails verification),
//   - at-rest read corruption: a read may discover the stored object
//     damaged; the damage is sticky, as real bit rot is,
//   - dark mode: total unavailability (SetDark / SetDarkFor), every
//     operation failing fast with ErrRemoteUnavailable.
//
// All fault injection is driven by a seeded rng, so a Remote with fixed
// options produces the same fault schedule for the same op sequence. The
// chaos engine drives the deterministic campaigns instead through the
// RemotePut / RemoteGet injection points (Info.Drop force-fails one op)
// and dark mode — campaign scenarios run with zero latency and zero rates.
type Remote struct {
	opts RemoteOptions
	ctrs *counters

	mu      sync.Mutex
	rng     *rand.Rand
	objects map[Key]*remoteObject
	dark    bool
	// darkOps, when positive, is the remaining failed-op budget before the
	// remote self-heals out of dark mode; 0 while dark means dark until
	// SetDark(false).
	darkOps int
}

// remoteObject is one uploaded checkpoint plus its damage state.
type remoteObject struct {
	ck      *Checkpoint
	torn    bool // partial multi-chunk upload: fails read verification
	corrupt bool // at-rest damage discovered (and kept) by a read
}

// RemoteOptions parameterizes the simulated remote. The zero value is a
// perfect store: no latency, no faults.
type RemoteOptions struct {
	// Latency is the per-operation base round-trip; PerKB adds transfer
	// time per KiB of checkpoint payload moved. Both must be zero in
	// deterministic chaos campaigns.
	Latency time.Duration
	PerKB   time.Duration
	// TimeoutRate / ThrottleRate are per-op probabilities of a transient
	// request timeout / throttling rejection (429-style).
	TimeoutRate  float64
	ThrottleRate float64
	// Seed drives the fault rng; the same seed and op sequence yield the
	// same fault schedule.
	Seed int64
	// Hook, if non-nil, receives point.RemotePut / point.RemoteGet before
	// each operation (Info.Drop force-fails it) and point.RemoteDark on
	// dark-mode transitions.
	Hook point.Hook

	// tornWriteRate is the probability a Put times out mid-upload leaving
	// a partial object; readCorruptRate the probability a Get discovers
	// sticky at-rest corruption. Only this package's tests set them.
	tornWriteRate   float64
	readCorruptRate float64
}

// Transient remote faults. A Resilient wrapper retries these; permanent
// verdicts (ErrNotFound, ErrCorrupt) pass through untouched.
var (
	// ErrRemoteTimeout reports a remote request that timed out in flight.
	ErrRemoteTimeout = errors.New("ckptstore: remote request timed out")
	// ErrRemoteThrottled reports a remote throttling rejection.
	ErrRemoteThrottled = errors.New("ckptstore: remote throttled the request")
	// ErrRemoteUnavailable reports a remote that is dark (unreachable) or
	// an operation force-failed by an injection hook.
	ErrRemoteUnavailable = errors.New("ckptstore: remote unavailable")
)

// IsTransientRemote reports whether err is a transient remote fault a
// retry may clear (timeout, throttle, unavailability).
func IsTransientRemote(err error) bool {
	return errors.Is(err, ErrRemoteTimeout) ||
		errors.Is(err, ErrRemoteThrottled) ||
		errors.Is(err, ErrRemoteUnavailable)
}

// NewRemote builds a simulated remote object store.
func NewRemote(opts RemoteOptions) *Remote {
	return &Remote{
		opts:    opts,
		ctrs:    newCounters(),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		objects: make(map[Key]*remoteObject),
	}
}

// Name implements Store.
func (r *Remote) Name() string { return "remote" }

// SetDark switches total unavailability on or off: while dark, every
// operation fails fast with ErrRemoteUnavailable. Safe from any goroutine.
func (r *Remote) SetDark(dark bool) {
	r.mu.Lock()
	changed := r.dark != dark
	r.dark = dark
	r.darkOps = 0
	r.mu.Unlock()
	if changed {
		iter := 0
		if !dark {
			iter = -1
		}
		r.fireDark(iter)
	}
}

// SetDarkFor darkens the remote for the next n operations, after which it
// self-heals — a deterministic flapping outage. n <= 0 behaves like
// SetDark(true).
func (r *Remote) SetDarkFor(n int) {
	if n <= 0 {
		r.SetDark(true)
		return
	}
	r.mu.Lock()
	changed := !r.dark
	r.dark = true
	r.darkOps = n
	r.mu.Unlock()
	if changed {
		r.fireDark(n)
	}
}

func (r *Remote) fireDark(iter int) {
	if r.opts.Hook != nil {
		r.opts.Hook.Fire(point.RemoteDark, &point.Info{Replica: -1, Node: -1, Task: -1, Iter: iter})
	}
}

// consumeDark reports whether the op fails dark, burning one op of a
// bounded outage and firing the recovery transition when the budget runs
// out. Caller must not hold r.mu.
func (r *Remote) consumeDark() bool {
	r.mu.Lock()
	if !r.dark {
		r.mu.Unlock()
		return false
	}
	healed := false
	if r.darkOps > 0 {
		r.darkOps--
		if r.darkOps == 0 {
			r.dark = false
			healed = true
		}
	}
	r.mu.Unlock()
	if healed {
		r.fireDark(-1)
	}
	return true
}

// simLatency models the op's wall cost. bytes is the payload moved.
func (r *Remote) simLatency(bytes int) {
	d := r.opts.Latency + time.Duration(bytes/1024)*r.opts.PerKB
	if d > 0 {
		time.Sleep(d)
	}
}

// roll draws one fault decision from the seeded rng.
func (r *Remote) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	r.mu.Lock()
	hit := r.rng.Float64() < rate
	r.mu.Unlock()
	return hit
}

// firePoint notifies the injection hook; it reports whether the hook
// force-failed the op via Info.Drop.
func (r *Remote) firePoint(id point.ID, k Key) bool {
	if r.opts.Hook == nil {
		return false
	}
	info := point.Info{Replica: k.Replica, Node: k.Node, Task: k.Task, Epoch: k.Epoch}
	r.opts.Hook.Fire(id, &info)
	return info.Drop
}

// Put implements Store: uploads a deep copy of the checkpoint. A torn
// write stores the partial object AND returns ErrRemoteTimeout — the
// client believes the upload failed, but a damaged object now shadows the
// key, exactly the hazard idempotent re-Put must overwrite.
func (r *Remote) Put(k Key, ck *Checkpoint) error {
	if r.firePoint(point.RemotePut, k) {
		return fmt.Errorf("%w: put %v force-failed by injection", ErrRemoteUnavailable, k)
	}
	if r.consumeDark() {
		return fmt.Errorf("%w: put %v", ErrRemoteUnavailable, k)
	}
	r.simLatency(ck.Len())
	switch {
	case r.roll(r.opts.TimeoutRate):
		return fmt.Errorf("%w: put %v", ErrRemoteTimeout, k)
	case r.roll(r.opts.ThrottleRate):
		return fmt.Errorf("%w: put %v", ErrRemoteThrottled, k)
	case r.roll(r.opts.tornWriteRate):
		r.mu.Lock()
		r.objects[k] = &remoteObject{ck: ck.Clone(), torn: true}
		r.mu.Unlock()
		return fmt.Errorf("%w: put %v torn mid-upload", ErrRemoteTimeout, k)
	}
	r.mu.Lock()
	r.objects[k] = &remoteObject{ck: ck.Clone()}
	r.mu.Unlock()
	r.ctrs.puts.Add(1)
	r.ctrs.bytesWritten.Add(int64(ck.Len()))
	r.ctrs.chunksStored.Add(int64(ck.NumChunks()))
	return nil
}

// Get implements Store. Torn and corrupted objects surface as ErrCorrupt:
// the object exists but fails the read path's verification — detected
// damage, not absence.
func (r *Remote) Get(k Key) (*Checkpoint, error) {
	if r.firePoint(point.RemoteGet, k) {
		return nil, fmt.Errorf("%w: get %v force-failed by injection", ErrRemoteUnavailable, k)
	}
	if r.consumeDark() {
		return nil, fmt.Errorf("%w: get %v", ErrRemoteUnavailable, k)
	}
	r.mu.Lock()
	obj, ok := r.objects[k]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("ckptstore: remote get %v: %w", k, ErrNotFound)
	}
	r.simLatency(obj.ck.Len())
	switch {
	case r.roll(r.opts.TimeoutRate):
		return nil, fmt.Errorf("%w: get %v", ErrRemoteTimeout, k)
	case r.roll(r.opts.ThrottleRate):
		return nil, fmt.Errorf("%w: get %v", ErrRemoteThrottled, k)
	}
	if obj.torn || obj.corrupt {
		return nil, fmt.Errorf("ckptstore: remote get %v: %w", k, ErrCorrupt)
	}
	if r.roll(r.opts.readCorruptRate) {
		r.mu.Lock()
		obj.corrupt = true
		r.mu.Unlock()
		return nil, fmt.Errorf("ckptstore: remote get %v: %w", k, ErrCorrupt)
	}
	r.ctrs.gets.Add(1)
	r.ctrs.bytesRead.Add(int64(obj.ck.Len()))
	return obj.ck, nil
}

// Probe is a cheap health check: it succeeds exactly when the remote is
// reachable. It consumes a dark op (a bounded outage heals through failed
// probes too) but fires no injection points and draws no rng — background
// breaker probes must not perturb a deterministic campaign's occurrence
// counts.
func (r *Remote) Probe() error {
	if r.consumeDark() {
		return fmt.Errorf("%w: probe", ErrRemoteUnavailable)
	}
	return nil
}

// Compare implements Store.
func (r *Remote) Compare(a, b Key) (CompareResult, error) {
	return compareVia(r.ctrs, r.Get, a, b)
}

// Evict implements Store.
func (r *Remote) Evict(olderThan uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for k, obj := range r.objects {
		if k.Epoch < olderThan {
			r.ctrs.bytesEvicted.Add(int64(obj.ck.Len()))
			delete(r.objects, k)
			n++
		}
	}
	return n
}

// Keys implements Enumerator.
func (r *Remote) Keys() []Key {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Key, 0, len(r.objects))
	for k := range r.objects {
		out = append(out, k)
	}
	return out
}

// Counters implements Store.
func (r *Remote) Counters() Counters { return r.ctrs.snapshot() }
