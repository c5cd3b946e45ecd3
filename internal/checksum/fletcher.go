// Package checksum implements the position-dependent Fletcher checksum used
// by ACR to compare buddy checkpoints without shipping them (§4.2).
//
// Fletcher's algorithm keeps two running sums: a plain sum of the data words
// and a sum of the running sums. The second sum weights each word by its
// distance from the end of the buffer, which makes the checksum sensitive to
// the *position* of corrupted data, not just its value — transposed blocks
// that would fool an additive checksum change a Fletcher checksum.
//
// The cost model of §4.2 (4 arithmetic instructions per word versus 1 for a
// plain copy, so checksumming wins only when gamma < beta/4) corresponds to
// the two adds and two modular reductions in the inner loop.
package checksum

import "encoding/binary"

// Fletcher64 computes the Fletcher-64 checksum over the data interpreted as
// little-endian 32-bit words. Trailing bytes are zero-padded. ACR uses the
// 64-bit variant for checkpoint comparison: a 32-byte checksum message (two
// 64-bit sums per direction plus framing) replaces a multi-megabyte
// checkpoint transfer.
//
// For whole buffers this uses the block-mode loop (deferred modular
// reduction, see chunks.go), which produces bit-identical sums to
// Fletcher64Writer at several times the throughput; the incremental writer
// remains the reference implementation and the §4.2 cost-model baseline.
func Fletcher64(data []byte) uint64 {
	return fletcher64Block(data)
}

// Fletcher64Writer is an incremental Fletcher-64 accumulator implementing
// io.Writer. The zero value is ready to use.
type Fletcher64Writer struct {
	s1, s2 uint64
	nbuf   int
	buf    [4]byte
}

const mod32 = 4294967295

// Write absorbs data into the checksum. It never fails.
func (f *Fletcher64Writer) Write(p []byte) (int, error) {
	n := len(p)
	// Drain any partial word first.
	for f.nbuf > 0 && f.nbuf < 4 && len(p) > 0 {
		f.buf[f.nbuf] = p[0]
		f.nbuf++
		p = p[1:]
	}
	if f.nbuf == 4 {
		f.absorb(binary.LittleEndian.Uint32(f.buf[:]))
		f.nbuf = 0
	}
	for len(p) >= 4 {
		f.absorb(binary.LittleEndian.Uint32(p))
		p = p[4:]
	}
	for _, b := range p {
		f.buf[f.nbuf] = b
		f.nbuf++
	}
	return n, nil
}

func (f *Fletcher64Writer) absorb(w uint32) {
	f.s1 = (f.s1 + uint64(w)) % mod32
	f.s2 = (f.s2 + f.s1) % mod32
}

// Sum64 returns the checksum of the bytes written so far, zero-padding any
// pending partial word without disturbing further writes.
func (f *Fletcher64Writer) Sum64() uint64 {
	s1, s2 := f.s1, f.s2
	if f.nbuf > 0 {
		var tmp [4]byte
		copy(tmp[:], f.buf[:f.nbuf])
		w := uint64(binary.LittleEndian.Uint32(tmp[:]))
		s1 = (s1 + w) % mod32
		s2 = (s2 + s1) % mod32
	}
	return s2<<32 | s1
}
