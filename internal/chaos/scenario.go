// Package chaos is ACR's deterministic fault-injection campaign engine:
// the systematic counterpart of the paper's §6.1 injection experiments.
//
// Where internal/failure replays a time-ordered plan against the wall
// clock, chaos aims faults at *protocol-phase boundaries* — mid-consensus,
// during capture, inside the medium/weak recovery window, on the store's
// read/write paths — which is exactly where checkpoint/restart protocols
// break. A Scenario describes a fault campaign (kinds, targets, and
// phase-aware triggers); the Engine arms it against labeled injection
// points threaded through internal/runtime, internal/core, and
// internal/ckptstore; the Oracle checks every run against the scheme's
// guarantees; and the campaign runner (cmd/acrsoak) sweeps seed ranges with
// same-seed→identical-report determinism plus ddmin-style fault-schedule
// minimization.
package chaos

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/core"
)

// FaultKind is the action a fault performs when its trigger fires.
type FaultKind string

// Fault kinds.
const (
	// MsgBitFlip flips one random bit of a scalar message payload in
	// flight (point.RuntimeDeliver). Non-scalar payloads are left intact
	// and the fault stays armed for the next matching delivery.
	MsgBitFlip FaultKind = "msg_bitflip"
	// CkptCorrupt flips one random bit in the user-data tail of a
	// checkpoint just accepted by the store (point.StoreWrite). On a disk
	// tier the flip lands in the file — true at-rest corruption that the
	// tier's read-path verification catches; on the memory tier it lands
	// in the resident payload, which the buddy comparison catches.
	CkptCorrupt FaultKind = "ckpt_corrupt"
	// Crash fail-stops the target node.
	Crash FaultKind = "crash"
	// BuddyDoubleCrash fail-stops the target node and its buddy (the same
	// node index in the other replica) in one firing.
	BuddyDoubleCrash FaultKind = "buddy_double_crash"
	// HeartbeatDelay stalls the failure-detector tick that reaches the
	// target physical node by Fault.Delay, once (point.RuntimeHeartbeat):
	// detection of any dead node waits out the stall.
	HeartbeatDelay FaultKind = "heartbeat_delay"
	// FrameDrop discards one exchange frame before it reaches the link
	// (point.NetFrame, via Info.Drop) — a targeted loss on top of the
	// link's probabilistic faults, forcing a deterministic retransmission.
	// Requires the scenario to enable the hardened exchange (loss/dup/
	// reorder rates, which may be zero-but-set via a FrameDrop fault).
	FrameDrop FaultKind = "frame_drop"
	// TrackerBlind mutes the target task's dirty-write marks in BOTH
	// replicas (point.CoreCapture, where the machine is quiescent). The
	// task keeps writing its pad but stops reporting the writes, so every
	// later capture splices stale pad bytes — the lying-tracker failure
	// mode the incremental capture path's trust model cannot detect.
	// Because both replicas lie identically, the buddy comparison passes
	// and the stale checkpoint commits; a later restore from it loses pad
	// increments permanently, which the golden-pad invariant must report.
	// Requires PadFloats >= 2 (scalar fields self-detect; only a bulk
	// field can go stale).
	TrackerBlind FaultKind = "tracker_blind"
	// RemoteOpFail force-fails one remote-store operation in flight via
	// Info.Drop (point.RemotePut / point.RemoteGet) — a deterministic
	// transient the Resilient wrapper must absorb with a retry. Requires
	// Scenario.RemoteEvery > 0.
	RemoteOpFail FaultKind = "remote_op_fail"
	// RemoteDark takes the remote tier fully dark: every later remote
	// operation fails with ErrRemoteUnavailable until Fault.Count ops have
	// been burned (Count <= 0 keeps it dark for the rest of the run). The
	// ladder's local tiers and the Resilient fallback must absorb the
	// outage — a dark remote may never abort a job. Requires
	// Scenario.RemoteEvery > 0.
	RemoteDark FaultKind = "remote_dark"
)

// validKind reports whether k is a known fault kind.
func validKind(k FaultKind) bool {
	switch k {
	case MsgBitFlip, CkptCorrupt, Crash, BuddyDoubleCrash, HeartbeatDelay, FrameDrop, TrackerBlind,
		RemoteOpFail, RemoteDark:
		return true
	}
	return false
}

// Target names the fault's victim. A -1 field is resolved to a uniformly
// random legal value from the run seed when the scenario is armed, so the
// resolved campaign is still deterministic per seed.
type Target struct {
	Replica int `json:"replica"`
	Node    int `json:"node"`
	Task    int `json:"task"`
}

func (t Target) String() string {
	f := func(v int) string {
		if v < 0 {
			return "*"
		}
		return fmt.Sprint(v)
	}
	return "r" + f(t.Replica) + "/n" + f(t.Node) + "/t" + f(t.Task)
}

// Trigger is a protocol-phase-aware firing condition: the fault executes on
// the Occurrence-th firing of Point whose context matches the fault target.
// Occurrence <= 0 means the first matching firing.
type Trigger struct {
	Point      point.ID `json:"point"`
	Occurrence int      `json:"occurrence"`
}

// Fault is one planned injection.
type Fault struct {
	Kind    FaultKind `json:"kind"`
	Target  Target    `json:"target"`
	Trigger Trigger   `json:"trigger"`
	// Both (CkptCorrupt only) corrupts the target's checkpoint AND its
	// buddy's checkpoint of the same epoch with the identical bit flip —
	// the corruption the buddy comparison is structurally blind to. This
	// is the oracle-sensitivity mode: it emulates a disabled comparison,
	// and a correct oracle must report the resulting SDC escape.
	Both bool `json:"both,omitempty"`
	// Delay is the detector-tick stall for HeartbeatDelay.
	Delay Duration `json:"delay,omitempty"`
	// Count (RemoteDark only) is the failed-op budget of the outage: the
	// remote self-heals after Count operations fail dark. <= 0 keeps the
	// remote dark for the rest of the run.
	Count int `json:"count,omitempty"`
}

// Duration is a time.Duration that marshals as a string ("8ms") so
// scenario JSON stays human-editable.
type Duration time.Duration

// MarshalJSON encodes the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or integer nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("chaos: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("chaos: bad duration %s", data)
	}
	*d = Duration(n)
	return nil
}

// Scenario is one fault campaign against one machine shape and scheme. The
// zero value is not runnable; fill the fields or parse JSON.
type Scenario struct {
	Name string `json:"name"`
	// Machine shape and workload length.
	Nodes  int `json:"nodes"`
	Tasks  int `json:"tasks"`
	Spares int `json:"spares"`
	Iters  int `json:"iters"`
	// Scheme is "strong" | "medium" | "weak"; Comparison "full" |
	// "checksum"; Store "mem" | "disk".
	Scheme     string `json:"scheme"`
	Comparison string `json:"comparison"`
	Store      string `json:"store"`
	// PaceEvery forces a checkpoint round every N progress reports —
	// deterministic, progress-based pacing instead of the wall-clock
	// interval, so the same seed schedules the same number of faults
	// against the same protocol phases regardless of host speed.
	PaceEvery int `json:"pace_every"`
	// FlushEvery enables the durable flush tier (core.Config.FlushEvery):
	// every K-th commit is flushed to an owned disk tier, the escalation
	// target for buddy-pair double faults. Zero disables it.
	FlushEvery int `json:"flush_every,omitempty"`
	// RemoteEvery enables the remote checkpoint tier
	// (core.Config.RemoteFlushEvery): every K-th commit is uploaded to a
	// simulated object store wrapped in the Resilient retry/breaker layer
	// with a local fallback, and recovery gains the tier-3 rung. The
	// campaign remote runs with zero latency and zero probabilistic fault
	// rates; all remote faults are scheduled through the engine.
	RemoteEvery int `json:"remote_every,omitempty"`
	// Degraded enables spare-exhaustion folding (core.Config.Degraded).
	Degraded bool `json:"degraded,omitempty"`
	// Loss / Dup / Reorder enable the hardened checkpoint exchange with
	// the given link fault probabilities (core.Config.Exchange). All zero
	// (and no FrameDrop fault) keeps the direct in-process path.
	Loss    float64 `json:"loss,omitempty"`
	Dup     float64 `json:"dup,omitempty"`
	Reorder float64 `json:"reorder,omitempty"`
	// PadFloats sizes RingProg's write-tracked bulk pad (see workload.go).
	// Zero keeps the historical scalar-only workload; >= 2 routes every
	// capture through the dirty splice/patch path with a mostly-clean bulk
	// body, including a trailing sentinel element the workload never
	// writes. 1 is rejected (a one-element pad is all sentinel, so no
	// iteration could write it).
	PadFloats int `json:"pad_floats,omitempty"`
	// ChunkSize overrides the checkpoint chunk granularity
	// (core.Config.ChunkSize). Zero keeps the default; pad scenarios set
	// it small so the clean pad tail occupies its own chunks, separate
	// from the per-iteration scalar churn.
	ChunkSize int `json:"chunk_size,omitempty"`
	// Faults is the campaign schedule.
	Faults []Fault `json:"faults"`
}

// exchangeEnabled reports whether the scenario routes the checkpoint
// exchange through the lossy link (explicit rates, or a FrameDrop fault
// that needs NetFrame firings to trigger on).
func (s *Scenario) exchangeEnabled() bool {
	if s.Loss > 0 || s.Dup > 0 || s.Reorder > 0 {
		return true
	}
	for _, f := range s.Faults {
		if f.Kind == FrameDrop {
			return true
		}
	}
	return false
}

// Validate checks the scenario is runnable.
func (s *Scenario) Validate() error {
	switch {
	case s.Nodes <= 0 || s.Tasks <= 0:
		return fmt.Errorf("chaos: invalid machine shape %dx%d", s.Nodes, s.Tasks)
	case s.Iters <= 0:
		return fmt.Errorf("chaos: Iters must be positive")
	case s.PaceEvery <= 0:
		return fmt.Errorf("chaos: PaceEvery must be positive (deterministic pacing is required)")
	}
	if _, err := schemeOf(s.Scheme); err != nil {
		return err
	}
	if _, err := comparisonOf(s.Comparison); err != nil {
		return err
	}
	if s.Store != "" && s.Store != "mem" && s.Store != "disk" {
		return fmt.Errorf("chaos: unknown store tier %q", s.Store)
	}
	if s.FlushEvery < 0 {
		return fmt.Errorf("chaos: negative FlushEvery")
	}
	if s.RemoteEvery < 0 {
		return fmt.Errorf("chaos: negative RemoteEvery")
	}
	if s.PadFloats < 0 || s.PadFloats == 1 {
		return fmt.Errorf("chaos: PadFloats must be 0 or >= 2 (the final element is a never-written sentinel)")
	}
	if s.ChunkSize < 0 {
		return fmt.Errorf("chaos: negative ChunkSize")
	}
	if s.Loss < 0 || s.Dup < 0 || s.Reorder < 0 || s.Loss+s.Dup+s.Reorder >= 1 {
		return fmt.Errorf("chaos: link fault rates must be non-negative and sum below 1")
	}
	known := map[point.ID]bool{}
	for _, id := range point.All() {
		known[id] = true
	}
	for i, f := range s.Faults {
		if !validKind(f.Kind) {
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
		if !known[f.Trigger.Point] {
			return fmt.Errorf("chaos: fault %d: unknown injection point %q", i, f.Trigger.Point)
		}
		if f.Both && f.Kind != CkptCorrupt {
			return fmt.Errorf("chaos: fault %d: Both applies only to %s", i, CkptCorrupt)
		}
		if f.Kind == FrameDrop && f.Trigger.Point != point.NetFrame {
			return fmt.Errorf("chaos: fault %d: %s triggers only at %s", i, FrameDrop, point.NetFrame)
		}
		if f.Kind == RemoteOpFail || f.Kind == RemoteDark {
			if s.RemoteEvery <= 0 {
				return fmt.Errorf("chaos: fault %d: %s needs RemoteEvery > 0 (no remote tier to fault)", i, f.Kind)
			}
		}
		if f.Kind == RemoteOpFail && f.Trigger.Point != point.RemotePut && f.Trigger.Point != point.RemoteGet {
			return fmt.Errorf("chaos: fault %d: %s triggers only at %s or %s", i, RemoteOpFail, point.RemotePut, point.RemoteGet)
		}
		if f.Count != 0 && f.Kind != RemoteDark {
			return fmt.Errorf("chaos: fault %d: Count applies only to %s", i, RemoteDark)
		}
		if f.Kind == TrackerBlind {
			if f.Trigger.Point != point.CoreCapture {
				return fmt.Errorf("chaos: fault %d: %s triggers only at %s (quiescent task state)", i, TrackerBlind, point.CoreCapture)
			}
			if s.PadFloats < 2 {
				return fmt.Errorf("chaos: fault %d: %s needs PadFloats >= 2 (scalars self-detect; staleness needs a bulk field)", i, TrackerBlind)
			}
		}
	}
	return nil
}

func schemeOf(s string) (core.Scheme, error) {
	switch s {
	case "strong", "":
		return core.Strong, nil
	case "medium":
		return core.Medium, nil
	case "weak":
		return core.Weak, nil
	}
	return 0, fmt.Errorf("chaos: unknown scheme %q", s)
}

func comparisonOf(s string) (core.Comparison, error) {
	switch s {
	case "full", "":
		return core.FullCompare, nil
	case "checksum":
		return core.ChecksumCompare, nil
	}
	return 0, fmt.Errorf("chaos: unknown comparison %q", s)
}

// ParseScenario decodes and validates a JSON scenario.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("chaos: parse scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// resolveFaults returns a copy of the scenario's faults with every wildcard
// target field fixed to a concrete value drawn from rng, and occurrences
// normalized to >= 1. Resolution order is fault order, so the resolved
// schedule is deterministic for a fixed seed.
func (s *Scenario) resolveFaults(rng *rand.Rand) []Fault {
	out := make([]Fault, len(s.Faults))
	for i, f := range s.Faults {
		if f.Trigger.Point == point.NetFrame || f.Kind == RemoteOpFail || f.Kind == RemoteDark {
			// Frame-level and remote faults keep wildcard targets: a -1
			// field matches any firing dimension (matches treats the
			// context wildcards symmetrically), so "the Nth frame/remote
			// op, whatever it is" stays expressible and consumes no rng
			// draws — remote faults victimize the shared store, not a node.
			if f.Trigger.Occurrence <= 0 {
				f.Trigger.Occurrence = 1
			}
			out[i] = f
			continue
		}
		if f.Target.Replica < 0 {
			f.Target.Replica = rng.Intn(2)
		}
		if f.Target.Node < 0 {
			f.Target.Node = rng.Intn(s.Nodes)
		}
		if f.Target.Task < 0 {
			f.Target.Task = rng.Intn(s.Tasks)
		}
		if f.Kind == CkptCorrupt && f.Both {
			// The engine corrupts the replica-0 copy and mirrors the
			// flip onto replica 1's write of the same epoch, whichever
			// of the two lands first.
			f.Target.Replica = 0
		}
		if f.Trigger.Occurrence <= 0 {
			f.Trigger.Occurrence = 1
		}
		out[i] = f
	}
	return out
}
