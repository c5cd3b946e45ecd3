package ckptstore

import "acr/internal/chaos/point"

// Hooked interposes a fault-injection hook on a Store's read and write
// paths: point.StoreWrite fires after every accepted Put (the hook may
// corrupt the stored copy — at-rest corruption), point.StoreRead after
// every successful Get. Compare and Evict pass through untouched (Layer):
// the two-phase compare works on resident metadata, which real at-rest
// corruption does not reach.
type Hooked struct {
	Layer
	hook point.Hook
}

// WithHook wraps the store; a nil hook returns the store unchanged.
func WithHook(inner Store, hook point.Hook) Store {
	if hook == nil {
		return inner
	}
	return &Hooked{Layer: Layer{inner}, hook: hook}
}

// Put implements Store: store first, then expose the stored checkpoint to
// the hook so corruption lands on the at-rest copy. A borrowed checkpoint
// is copied first, so a flip the hook makes lands on the copy and never
// reaches the store the borrow came from.
func (s *Hooked) Put(k Key, ck *Checkpoint) error {
	if ck.Borrowed() {
		ck = ck.Clone()
	}
	if err := s.Store.Put(k, ck); err != nil {
		return err
	}
	s.hook.Fire(point.StoreWrite, &point.Info{Replica: k.Replica, Node: k.Node, Task: k.Task, Epoch: k.Epoch, Payload: ck})
	return nil
}

// Get implements Store.
func (s *Hooked) Get(k Key) (*Checkpoint, error) {
	ck, err := s.Store.Get(k)
	if err != nil {
		return nil, err
	}
	s.hook.Fire(point.StoreRead, &point.Info{Replica: k.Replica, Node: k.Node, Task: k.Task, Epoch: k.Epoch, Payload: ck})
	return ck, nil
}

// MutableBytes exposes a checkpoint's stored payload for in-place
// corruption by injection hooks. It exists solely for fault injection:
// every other caller must treat Bytes as read-only.
func (c *Checkpoint) MutableBytes() []byte { return c.data }
