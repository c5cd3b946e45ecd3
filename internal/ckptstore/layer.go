package ckptstore

// Layer is the embeddable base of a Store wrapper. A wrapper embeds it and
// writes only the methods it changes; every other Store method forwards to
// the wrapped store, the optional Enumerator and Volatile capabilities
// forward when the wrapped store has them, and Inner exposes the wrapped
// store so As can look through the wrapper.
type Layer struct{ Store }

// Inner returns the wrapped store.
func (l Layer) Inner() Store { return l.Store }

// Keys forwards the Enumerator capability; a non-enumerable wrapped store
// yields nil.
func (l Layer) Keys() []Key {
	if e, ok := l.Store.(Enumerator); ok {
		return e.Keys()
	}
	return nil
}

// DropNode forwards the Volatile capability; on a non-volatile wrapped store
// it reports zero drops (node death does not lose durable checkpoints).
func (l Layer) DropNode(replica, node int) int {
	if v, ok := l.Store.(Volatile); ok {
		return v.DropNode(replica, node)
	}
	return 0
}

// As finds the outermost store in a wrapper stack that is a T — a concrete
// backend (*Disk) or a capability interface (ResilientReporter) — walking
// down through Inner() accessors. Any wrapper that has an Inner() Store
// method is looked through, whether or not it embeds Layer.
func As[T any](s Store) (T, bool) {
	for s != nil {
		if t, ok := s.(T); ok {
			return t, true
		}
		u, ok := s.(interface{ Inner() Store })
		if !ok {
			break
		}
		s = u.Inner()
	}
	var zero T
	return zero, false
}
