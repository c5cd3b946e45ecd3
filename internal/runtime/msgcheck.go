package runtime

import (
	"encoding/binary"
	"math"
	"sync"

	"acr/internal/checksum"
)

// Message-based SDC detection — the §3.3 alternative ACR argues against.
// Every send is hashed, and each task's outgoing message stream folds into
// a position-dependent running checksum. Because the two replicas execute
// the same program, the stream checksum of task (n, t) in replica 0 must
// equal that of task (n, t) in replica 1 after the same number of sends;
// a divergence means corrupted data escaped into a message.
//
// The paper's criticism, which this implementation makes testable: "if the
// data effected by SDC remains local, it will not be detected" — a bit
// flip in state that is never sent leaves both streams identical.

// MessageHasher converts a message payload into a hashable byte string.
// Returning ok=false skips the message (unhashable payloads are not
// folded on either replica, so streams stay comparable).
type MessageHasher func(data any) (sum uint64, ok bool)

// DefaultMessageHasher hashes the payload types the mini-apps use:
// float64, int64, int, and []float64.
func DefaultMessageHasher(data any) (uint64, bool) {
	var f checksum.Fletcher64Writer
	var buf [8]byte
	switch v := data.(type) {
	case float64:
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		f.Write(buf[:])
	case int64:
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		f.Write(buf[:])
	case int:
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		f.Write(buf[:])
	case []float64:
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			f.Write(buf[:])
		}
	default:
		return 0, false
	}
	return f.Sum64(), true
}

// msgStream is one task's outgoing-message checksum chain.
type msgStream struct {
	count int
	chain uint64
}

// MsgChecker accumulates per-task message streams for both replicas and
// compares buddies. It is optional: install it via Config.MsgChecker.
type MsgChecker struct {
	hasher MessageHasher

	mu      sync.Mutex
	streams map[Addr]*msgStream
}

// NewMsgChecker returns a checker using the given hasher (nil means
// DefaultMessageHasher).
func NewMsgChecker(h MessageHasher) *MsgChecker {
	if h == nil {
		h = DefaultMessageHasher
	}
	return &MsgChecker{hasher: h, streams: make(map[Addr]*msgStream)}
}

// observe folds one outgoing message into the sender's stream.
func (mc *MsgChecker) observe(from Addr, tag int, data any) {
	h, ok := mc.hasher(data)
	if !ok {
		return
	}
	mc.mu.Lock()
	s := mc.streams[from]
	if s == nil {
		s = &msgStream{}
		mc.streams[from] = s
	}
	s.count++
	// Position-dependent fold: chain' = fletcher(chain || count || tag || h).
	var f checksum.Fletcher64Writer
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], s.chain)
	binary.LittleEndian.PutUint64(buf[8:], uint64(s.count))
	binary.LittleEndian.PutUint64(buf[16:], uint64(int64(tag)))
	binary.LittleEndian.PutUint64(buf[24:], h)
	f.Write(buf[:])
	s.chain = f.Sum64()
	mc.mu.Unlock()
}

// Divergence describes one buddy pair whose message streams differ.
type Divergence struct {
	Node, Task int
	Count0     int // messages folded in replica 0's stream
	Count1     int
}

// Compare cross-checks every buddy pair's stream at the shorter prefix
// length. Streams of different lengths are only divergent if the common
// prefix already differs — replicas legitimately run at different speeds,
// so a pure length difference is not corruption. Because the fold is a
// chain, prefix comparison requires equal counts; pairs with unequal
// counts are reported only when both have finished the same work (the
// caller decides when that holds, e.g. at a checkpoint cut).
func (mc *MsgChecker) Compare(nodesPerReplica, tasksPerNode int, requireEqualCounts bool) []Divergence {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	var out []Divergence
	for n := 0; n < nodesPerReplica; n++ {
		for t := 0; t < tasksPerNode; t++ {
			s0 := mc.streams[Addr{Replica: 0, Node: n, Task: t}]
			s1 := mc.streams[Addr{Replica: 1, Node: n, Task: t}]
			if s0 == nil && s1 == nil {
				continue
			}
			c0, c1 := 0, 0
			var h0, h1 uint64
			if s0 != nil {
				c0, h0 = s0.count, s0.chain
			}
			if s1 != nil {
				c1, h1 = s1.count, s1.chain
			}
			if c0 == c1 {
				if h0 != h1 {
					out = append(out, Divergence{Node: n, Task: t, Count0: c0, Count1: c1})
				}
			} else if requireEqualCounts {
				out = append(out, Divergence{Node: n, Task: t, Count0: c0, Count1: c1})
			}
		}
	}
	return out
}
