package apps

import "acr/internal/ampi"

// Per-incarnation scratch shared by the kernels (DESIGN.md §18). None of it
// is pup-visible: a task's checkpoint is the same bytes with or without it,
// and a restored task, built by the factory and unpacked, starts with nil
// scratch that the first iteration sizes.

// fit makes *s hold n values — a fresh zeroed slice unless it already does —
// and returns it.
func fit(s *[]float64, n int) []float64 {
	if len(*s) != n {
		*s = make([]float64, n)
	}
	return *s
}

// planeRing recycles the payloads of a Z-slab halo exchange: the outgoing
// bottom and top plane copies, two deep each. Iteration it's copy lives in
// slot it&1 and is next written at it+2. That is safe because the exchange
// is symmetric per iteration: a rank writes its plane of it+2 only after the
// neighbour's plane of it+1 arrived, and the neighbour sent that after it
// had finished reading the plane of it. A message the receiver has merely
// queued is covered too — it is consumed before the receiver sends the
// plane that lets the sender come round to the slot again.
type planeRing [2][2][]float64

// exchange sends the first and last plane-sized pieces of v to the Z
// neighbours and returns theirs (nil where the domain ends).
func (p *planeRing) exchange(r *ampi.Rank, it int, v []float64, plane, tagDown, tagUp int) (below, above []float64, err error) {
	rank, size := r.Rank(), r.Size()
	if rank > 0 {
		bottom := fit(&p[0][it&1], plane)
		copy(bottom, v[:plane])
		if err := r.Send(rank-1, tagDown, bottom); err != nil {
			return nil, nil, err
		}
	}
	if rank < size-1 {
		top := fit(&p[1][it&1], plane)
		copy(top, v[len(v)-plane:])
		if err := r.Send(rank+1, tagUp, top); err != nil {
			return nil, nil, err
		}
	}
	if rank > 0 {
		d, _, err := r.Recv(rank-1, tagUp)
		if err != nil {
			return nil, nil, err
		}
		below = d.([]float64)
	}
	if rank < size-1 {
		d, _, err := r.Recv(rank+1, tagDown)
		if err != nil {
			return nil, nil, err
		}
		above = d.([]float64)
	}
	return below, above, nil
}
