// Package ampi layers an MPI-flavoured, rank-oriented interface over the
// message-driven runtime, mirroring how the paper runs its MPI mini-apps
// (HPCCG, miniMD, Jacobi3D-MPI) on AMPI [16]: each MPI rank is a virtualized
// task of the underlying runtime, which is what lets ACR checkpoint,
// compare, and migrate MPI applications exactly like message-driven ones.
//
// A Rank is incarnation-scoped: create it inside Program.Run. Blocking
// receives perform tag/source matching with an unexpected-message queue;
// the one collective, Allreduce, is hub-based and uses a reserved tag space
// plus per-call sequence numbers, so user tags stay fully independent.
package ampi

import (
	"fmt"

	"acr/internal/runtime"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// AnyTag matches any user tag in Recv.
const AnyTag = -1

// maxUserTag bounds application tags; larger tags are reserved for
// collectives.
const maxUserTag = 1 << 20

// Op is a reduction operator.
type Op int

// Sum is the one reduction operator: the ported apps only sum.
const Sum Op = 0

func (o Op) String() string {
	switch o {
	case Sum:
		return "sum"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

func (o Op) combine(a, b float64) float64 {
	switch o {
	case Sum:
		return a + b
	}
	return a
}

// Rank is one MPI-style rank bound to the current task incarnation.
type Rank struct {
	ctx     *runtime.Ctx
	pending []runtime.Message
	collSeq int
	gather  []float64 // rank 0's Allreduce contributions, reused call to call
}

// New binds a Rank to the task context. The rank id is the task's dense
// index within its replica; ranks never see the other replica.
func New(ctx *runtime.Ctx) *Rank {
	return &Rank{ctx: ctx}
}

// Rank returns this rank's id in [0, Size).
func (r *Rank) Rank() int { return r.ctx.GlobalTask() }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.ctx.NumTasks() }

// Progress forwards to the runtime's progress/checkpoint hook; call it at
// the end of each iteration after advancing checkpointable state.
func (r *Rank) Progress(iter int) error { return r.ctx.Progress(iter) }

// Send delivers data to another rank with a user tag in [0, 1<<20).
func (r *Rank) Send(dst, tag int, data any) error {
	if tag < 0 || tag >= maxUserTag {
		return fmt.Errorf("ampi: tag %d outside [0, %d)", tag, maxUserTag)
	}
	return r.sendRaw(dst, tag, data)
}

func (r *Rank) sendRaw(dst, tag int, data any) error {
	if dst < 0 || dst >= r.Size() {
		return fmt.Errorf("ampi: rank %d out of range [0, %d)", dst, r.Size())
	}
	return r.ctx.Send(r.ctx.AddrOfGlobal(dst), tag, data)
}

// matches reports whether a message satisfies the (src, tag) selector.
func (r *Rank) matches(m runtime.Message, src, tag int) bool {
	if src != AnySource && m.From != r.ctx.AddrOfGlobal(src) {
		return false
	}
	if tag == AnyTag {
		return m.Tag < maxUserTag // AnyTag never steals collective traffic
	}
	return m.Tag == tag
}

// Recv blocks for a message matching the source and tag selectors
// (AnySource / AnyTag wildcards allowed) and returns its payload and source
// rank. Non-matching messages are queued and delivered to later receives
// in arrival order.
func (r *Rank) Recv(src, tag int) (data any, from int, err error) {
	for i, m := range r.pending {
		if r.matches(m, src, tag) {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return m.Data, r.fromRank(m), nil
		}
	}
	for {
		m, err := r.ctx.Recv()
		if err != nil {
			return nil, 0, err
		}
		if r.matches(m, src, tag) {
			return m.Data, r.fromRank(m), nil
		}
		r.pending = append(r.pending, m)
	}
}

func (r *Rank) fromRank(m runtime.Message) int {
	return m.From.Node*r.ctx.TasksPerNode() + m.From.Task
}

// collective tag layout: two tags (gather, bcast) per collective sequence
// number.
func (r *Rank) collTags() (gather, bcast int) {
	base := maxUserTag + 2*r.collSeq
	r.collSeq++
	return base, base + 1
}

// recvColl receives a collective-phase message with an exact tag from any
// source.
func (r *Rank) recvColl(tag int) (runtime.Message, error) {
	for i, m := range r.pending {
		if m.Tag == tag {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return m, nil
		}
	}
	for {
		m, err := r.ctx.Recv()
		if err != nil {
			return runtime.Message{}, err
		}
		if m.Tag == tag {
			return m, nil
		}
		r.pending = append(r.pending, m)
	}
}

// Allreduce combines value across all ranks with op and returns the result
// on every rank. Every rank must call every collective in the same order.
func (r *Rank) Allreduce(op Op, value float64) (float64, error) {
	gatherTag, bcastTag := r.collTags()
	n := r.Size()
	if n == 1 {
		return value, nil
	}
	if r.Rank() == 0 {
		// Gather all contributions first, then fold in rank order:
		// floating-point reduction must be deterministic or the two
		// replicas' states drift apart in the last bits and SDC
		// detection would flag phantom corruption.
		if len(r.gather) != n {
			r.gather = make([]float64, n)
		}
		vals := r.gather
		vals[0] = value
		for i := 0; i < n-1; i++ {
			m, err := r.recvColl(gatherTag)
			if err != nil {
				return 0, err
			}
			vals[r.fromRank(m)] = m.Data.(float64)
		}
		acc := vals[0]
		for i := 1; i < n; i++ {
			acc = op.combine(acc, vals[i])
		}
		for dst := 1; dst < n; dst++ {
			if err := r.sendRaw(dst, bcastTag, acc); err != nil {
				return 0, err
			}
		}
		return acc, nil
	}
	if err := r.sendRaw(0, gatherTag, value); err != nil {
		return 0, err
	}
	m, err := r.recvColl(bcastTag)
	if err != nil {
		return 0, err
	}
	return m.Data.(float64), nil
}
