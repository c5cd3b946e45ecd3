package pup

import "unsafe"

// This file holds the package's only unsafe: the wire image of a numeric
// slice read straight from its backing array, which is what lets a bulk
// field move with one memmove instead of one encode call per element.

// numeric is the set of slice element types with a fixed-width wire image.
type numeric interface {
	float64 | int64 | int | float32
}

// hostLE reports whether the host stores integers in wire (little-endian)
// order, decided once at init.
var hostLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wireView returns s's backing array as its packed bytes at wire bytes per
// element, or nil when memory is not the wire image: a big-endian host, or
// an element narrower in memory than on the wire (a 32-bit int travels as
// 64). The view aliases s; writes through it write s.
func wireView[T numeric](s []T, wire int) []byte {
	var z T
	if !hostLE || unsafe.Sizeof(z) != uintptr(wire) {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*wire)
}
