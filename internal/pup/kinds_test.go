package pup

import (
	"encoding/binary"
	"math"
	"sort"
)

// The field kinds no ported application pipes: 32-bit floats, 64-bit
// integer slices, 16-bit integers, string slices and string-keyed maps
// (packed in sorted key order, so equal maps pack to equal bytes). The tests
// keep them to drive the package's primitives (raw, length, bulk and its
// wire view, floatEqual, the dirty splice) through more than one element
// width and more than one kind of composite.

// Int64s pipes a []int64, resizing on unpack.
func (p *PUPer) Int64s(v *[]int64) { bulk(p, v, 8, (*PUPer).Int64) }

// Ints pipes a []int (64-bit on the wire), resizing on unpack.
func (p *PUPer) Ints(v *[]int) { bulk(p, v, 8, (*PUPer).Int) }

// Float32 pipes a float32 with tolerance-aware comparison.
func (p *PUPer) Float32(v *float32) {
	w := p.raw(4)
	if w == nil {
		return
	}
	switch p.mode {
	case Packing:
		binary.LittleEndian.PutUint32(w, math.Float32bits(*v))
		p.noteScalar(4)
	case Unpacking:
		*v = math.Float32frombits(binary.LittleEndian.Uint32(w))
	case Checking:
		r := math.Float32frombits(binary.LittleEndian.Uint32(w))
		if !p.floatEqual(float64(*v), float64(r)) {
			p.addMismatch(float64(*v), float64(r))
		}
	}
}

// Float32s pipes a []float32, resizing on unpack.
func (p *PUPer) Float32s(v *[]float32) { bulk(p, v, 4, (*PUPer).Float32) }

// Uint16 pipes a uint16.
func (p *PUPer) Uint16(v *uint16) {
	w := p.raw(2)
	if w == nil {
		return
	}
	switch p.mode {
	case Packing:
		binary.LittleEndian.PutUint16(w, *v)
		p.noteScalar(2)
	case Unpacking:
		*v = binary.LittleEndian.Uint16(w)
	case Checking:
		r := binary.LittleEndian.Uint16(w)
		if r != *v {
			p.addMismatch(float64(*v), float64(r))
		}
	}
}

// Strings pipes a []string, resizing on unpack.
func (p *PUPer) Strings(v *[]string) {
	n := p.length(len(*v))
	if n < 0 {
		return
	}
	if p.mode == Unpacking && len(*v) != n {
		*v = make([]string, n)
	}
	for i := range *v {
		if p.err != nil {
			return
		}
		p.String(&(*v)[i])
	}
}

// MapStringFloat64 pipes a map[string]float64 in sorted key order, so two
// replicas holding equal maps always produce byte-identical checkpoints
// regardless of Go's map iteration order.
func (p *PUPer) MapStringFloat64(v *map[string]float64) {
	n := p.length(len(*v))
	if n < 0 {
		return
	}
	switch p.mode {
	case Unpacking:
		*v = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			if p.err != nil {
				return
			}
			var k string
			var val float64
			p.String(&k)
			p.Float64(&val)
			(*v)[k] = val
		}
	default:
		keys := make([]string, 0, len(*v))
		for k := range *v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if p.err != nil {
				return
			}
			kk := k
			val := (*v)[k]
			p.String(&kk)
			p.Float64(&val)
			if p.mode == Checking && p.err != nil {
				return
			}
		}
	}
}

// MapStringInt64 pipes a map[string]int64 in sorted key order.
func (p *PUPer) MapStringInt64(v *map[string]int64) {
	n := p.length(len(*v))
	if n < 0 {
		return
	}
	switch p.mode {
	case Unpacking:
		*v = make(map[string]int64, n)
		for i := 0; i < n; i++ {
			if p.err != nil {
				return
			}
			var k string
			var val int64
			p.String(&k)
			p.Int64(&val)
			(*v)[k] = val
		}
	default:
		keys := make([]string, 0, len(*v))
		for k := range *v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if p.err != nil {
				return
			}
			kk := k
			val := (*v)[k]
			p.String(&kk)
			p.Int64(&val)
		}
	}
}
