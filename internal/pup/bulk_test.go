package pup

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The bulk body (bulk, spliceBulk) moves a numeric field as byte ranges of
// its wire view. This file keeps what it replaced — one encode call per
// element — as the reference, and holds the two to the same wire bytes,
// restored values, CheckResults, structural errors and DirtyPackResults.

// refSpliceBulk is spliceBulk as it was: copy the whole previous body, then
// re-encode dirty elements one closure call each.
func refSpliceBulk(p *PUPer, n, elemSize int, encode func(i int, w []byte)) bool {
	if !p.splicing() || p.err != nil {
		return false
	}
	body := n * elemSize
	lo := p.off
	hi := lo + body
	if hi > len(p.buf) {
		p.overflow = true
		p.fail("pack overflow at %d (+%d, buffer %d)", lo, body, len(p.buf))
		return true
	}
	if hi > len(p.prev) {
		p.diverged = true
		return false
	}
	if !p.patch {
		copy(p.buf[lo:hi], p.prev[lo:hi])
	}
	encoded := 0
	last := -1
	// n > 0: the original indexed element 0 of an empty body that sat
	// inside a dirty range (TestEmptyBulkBodyInsideDirtyRange).
	for p.dirtyIdx < len(p.dirty) && n > 0 {
		r := p.dirty[p.dirtyIdx]
		if r.Hi <= lo {
			p.dirtyIdx++
			continue
		}
		if r.Lo >= hi {
			break
		}
		rlo, rhi := r.Lo, r.Hi
		if rlo < lo {
			rlo = lo
		}
		if rhi > hi {
			rhi = hi
		}
		first := (rlo - lo) / elemSize
		lastEl := (rhi - 1 - lo) / elemSize
		if first <= last {
			first = last + 1
		}
		for i := first; i <= lastEl; i++ {
			encode(i, p.buf[lo+i*elemSize:lo+(i+1)*elemSize])
		}
		if lastEl >= first {
			encoded += lastEl - first + 1
			last = lastEl
			if encStart := lo + first*elemSize; encStart < rlo {
				p.appendExtra(encStart, rlo)
			}
			if encEnd := lo + (lastEl+1)*elemSize; encEnd > rhi {
				p.appendExtra(rhi, encEnd)
			}
		}
		if r.Hi > hi {
			break
		}
		p.dirtyIdx++
	}
	p.off = hi
	p.reused += body - encoded*elemSize
	return true
}

// refSlice is a numeric slice method as it was: prefix, closure splice,
// then one scalar call per element.
func refSlice[T any](p *PUPer, v *[]T, size int, elem func(*PUPer, *T), encode func(T, []byte)) {
	n := p.length(len(*v))
	if n < 0 {
		return
	}
	if p.mode == Unpacking && len(*v) != n {
		*v = make([]T, n)
	}
	if p.mode == Sizing {
		p.off += size * n
		return
	}
	if refSpliceBulk(p, n, size, func(i int, w []byte) { encode((*v)[i], w) }) {
		return
	}
	for i := range *v {
		if p.err != nil {
			return
		}
		elem(p, &(*v)[i])
	}
}

func refFloat64s(p *PUPer, v *[]float64) {
	refSlice(p, v, 8, (*PUPer).Float64, func(x float64, w []byte) {
		binary.LittleEndian.PutUint64(w, math.Float64bits(x))
	})
}

func refInt64s(p *PUPer, v *[]int64) {
	refSlice(p, v, 8, (*PUPer).Int64, func(x int64, w []byte) {
		binary.LittleEndian.PutUint64(w, uint64(x))
	})
}

func refInts(p *PUPer, v *[]int) {
	refSlice(p, v, 8, (*PUPer).Int, func(x int, w []byte) {
		binary.LittleEndian.PutUint64(w, uint64(int64(x)))
	})
}

func refFloat32s(p *PUPer, v *[]float32) {
	refSlice(p, v, 4, (*PUPer).Float32, func(x float32, w []byte) {
		binary.LittleEndian.PutUint32(w, math.Float32bits(x))
	})
}

// refBytes is Bytes over refSpliceBulk.
func refBytes(p *PUPer, v *[]byte) {
	n := p.length(len(*v))
	if n < 0 {
		return
	}
	if p.mode == Packing && refSpliceBulk(p, n, 1, func(i int, w []byte) { w[0] = (*v)[i] }) {
		return
	}
	w := p.raw(n)
	if p.mode == Sizing || p.err != nil {
		return
	}
	switch p.mode {
	case Packing:
		copy(w, *v)
	case Unpacking:
		if len(*v) != n {
			*v = make([]byte, n)
		}
		copy(*v, w)
	case Checking:
		for i := 0; i < n; i++ {
			if (*v)[i] != w[i] {
				p.addMismatch(float64((*v)[i]), float64(w[i]))
				break
			}
		}
	}
}

// bulkKind describes one slice method under test.
type bulkKind[T any] struct {
	name      string
	size      int                  // wire bytes per element
	pipe, ref func(*PUPer, *[]T)   // the method and its reference
	view      func() bool          // whether pipe has a wire view right now
	rnd       func(r *rand.Rand) T // a random value, special values included
	val       func(i int) T        // an ordinary value, distinct per i
	near, far func(T) T            // the closest other value / a gross change
	nearOK    bool                 // near is inside relTol 1e-9
	twins     [][2]T               // byte-different pairs floatEqual calls equal
}

func numericView[T numeric](size int) func() bool {
	return func() bool { return wireView(make([]T, 1), size) != nil }
}

func pick[T any](r *rand.Rand, special []T, ordinary func() T) T {
	if r.Intn(4) == 0 {
		return special[r.Intn(len(special))]
	}
	return ordinary()
}

var (
	nanA64 = math.Float64frombits(0x7ff8000000000001)
	nanB64 = math.Float64frombits(0xfff0000000000bad) // signalling, negative
	nanA32 = math.Float32frombits(0x7fc00001)
	nanB32 = math.Float32frombits(0xff800bad)
	neg0   = math.Copysign(0, -1)
)

var float64Kind = bulkKind[float64]{
	name: "Float64s", size: 8,
	pipe: (*PUPer).Float64s, ref: refFloat64s, view: numericView[float64](8),
	rnd: func(r *rand.Rand) float64 {
		return pick(r, []float64{nanA64, nanB64, neg0, 0, math.Inf(1), math.Inf(-1),
			math.MaxFloat64, math.SmallestNonzeroFloat64}, r.NormFloat64)
	},
	val:    func(i int) float64 { return 1.5 + float64(i) },
	near:   func(v float64) float64 { return v * (1 + 1e-12) },
	far:    func(v float64) float64 { return v + 1000 },
	nearOK: true,
	twins:  [][2]float64{{nanA64, nanB64}, {0, neg0}},
}

var float32Kind = bulkKind[float32]{
	name: "Float32s", size: 4,
	pipe: (*PUPer).Float32s, ref: refFloat32s, view: numericView[float32](4),
	rnd: func(r *rand.Rand) float32 {
		return pick(r, []float32{nanA32, nanB32, float32(neg0), 0, float32(math.Inf(1)),
			float32(math.Inf(-1)), math.MaxFloat32, math.SmallestNonzeroFloat32},
			func() float32 { return float32(r.NormFloat64()) })
	},
	val:   func(i int) float32 { return 1.5 + float32(i) },
	near:  func(v float32) float32 { return math.Nextafter32(v, float32(math.Inf(1))) },
	far:   func(v float32) float32 { return v + 1000 },
	twins: [][2]float32{{nanA32, nanB32}, {0, float32(neg0)}},
}

var int64Kind = bulkKind[int64]{
	name: "Int64s", size: 8,
	pipe: (*PUPer).Int64s, ref: refInt64s, view: numericView[int64](8),
	rnd: func(r *rand.Rand) int64 {
		return pick(r, []int64{math.MinInt64, math.MaxInt64, -1, 0},
			func() int64 { return int64(r.Uint64()) })
	},
	val:  func(i int) int64 { return 7 + int64(i) },
	near: func(v int64) int64 { return v + 1 },
	far:  func(v int64) int64 { return v + 1000 },
}

var intKind = bulkKind[int]{
	name: "Ints", size: 8,
	pipe: (*PUPer).Ints, ref: refInts, view: numericView[int](8),
	rnd: func(r *rand.Rand) int {
		return pick(r, []int{math.MinInt, math.MaxInt, -1, 0},
			func() int { return int(r.Uint64()) })
	},
	val:  func(i int) int { return 7 + i },
	near: func(v int) int { return v + 1 },
	far:  func(v int) int { return v + 1000 },
}

var byteKind = bulkKind[byte]{
	name: "Bytes", size: 1,
	pipe: (*PUPer).Bytes, ref: refBytes, view: func() bool { return true },
	rnd:  func(r *rand.Rand) byte { return byte(r.Intn(256)) },
	val:  func(i int) byte { return byte(i) },
	near: func(v byte) byte { return v + 1 },
	far:  func(v byte) byte { return v ^ 0xff },
}

// bulkProg puts two bulk fields of one kind among scalars: a range can cut
// an element, cover a body exactly, or straddle A, Mid and B.
type bulkProg[T any] struct {
	pipe func(*PUPer, *[]T)
	Head int
	A    []T
	Mid  float64
	B    []T
}

func (b *bulkProg[T]) Pup(p *PUPer) {
	p.Label("head")
	p.Int(&b.Head)
	p.Label("a")
	b.pipe(p, &b.A)
	p.Label("mid")
	p.Float64(&b.Mid)
	p.Label("b")
	b.pipe(p, &b.B)
}

// with returns the same state (slices shared) piped through pipe.
func (b *bulkProg[T]) with(pipe func(*PUPer, *[]T)) *bulkProg[T] {
	c := *b
	c.pipe = pipe
	return &c
}

func (b *bulkProg[T]) clone() *bulkProg[T] {
	c := *b
	c.A = append([]T(nil), b.A...)
	c.B = append([]T(nil), b.B...)
	return &c
}

func mustPack(t *testing.T, obj Pupable) []byte {
	t.Helper()
	data, err := Pack(obj)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func (k bulkKind[T]) run(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 4097} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/n=%d/seed=%d", k.name, n, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed<<16 + int64(n)))
				st := &bulkProg[T]{Head: r.Int(), Mid: r.NormFloat64(), A: make([]T, n), B: make([]T, (n+1)/2)}
				for i := range st.A {
					st.A[i] = k.rnd(r)
				}
				for i := range st.B {
					st.B[i] = k.rnd(r)
				}
				k.packUnpack(t, st)
				k.check(t, st)
				k.short(t, st)
				k.dirty(t, st, r)
			})
		}
	}
}

func (k bulkKind[T]) packUnpack(t *testing.T, st *bulkProg[T]) {
	want := mustPack(t, st.with(k.ref))
	if got := mustPack(t, st.with(k.pipe)); !bytes.Equal(got, want) {
		t.Fatal("Pack: wire bytes differ from the element walk's")
	}
	if got := Size(st.with(k.pipe)); got != len(want) {
		t.Fatalf("Size %d, packed %d", got, len(want))
	}
	got, fast, err := PackInto(st.with(k.pipe), make([]byte, 0, len(want)))
	if err != nil || !fast || !bytes.Equal(got, want) {
		t.Fatalf("PackInto: fast=%v err=%v, bytes equal=%v", fast, err, bytes.Equal(got, want))
	}
	// Restored through either body, into an empty program (resized) and a
	// same-shape one (overwritten in place), the values are the packed ones.
	for _, pipe := range []func(*PUPer, *[]T){k.pipe, k.ref} {
		for _, dst := range []*bulkProg[T]{{}, st.clone()} {
			dst.pipe = pipe
			for i := range dst.A {
				dst.A[i] = k.far(dst.A[i])
			}
			if err := Unpack(want, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustPack(t, dst.with(k.ref)), want) {
				t.Fatal("Unpack: restored values differ")
			}
		}
	}
}

func sameMismatches(a, b []Mismatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Label != b[i].Label || a[i].Offset != b[i].Offset ||
			math.Float64bits(a[i].Local) != math.Float64bits(b[i].Local) ||
			math.Float64bits(a[i].Remote) != math.Float64bits(b[i].Remote) {
			return false
		}
	}
	return true
}

func (k bulkKind[T]) check(t *testing.T, st *bulkProg[T]) {
	n := len(st.A)
	per := checkBlock / k.size // elements per comparison block
	type plan struct {
		name  string
		apply func(local, remote *bulkProg[T])
		// match is the verdict at relTol 0 and 1e-9 (nil: only real == ref).
		match *[2]bool
	}
	plans := []plan{{"none", func(l, rm *bulkProg[T]) {}, &[2]bool{true, true}}}
	for _, i := range []int{0, per - 1, per, per + 1, 2*per - 1, 2 * per, n / 2, n - 1} {
		if i < 0 || i >= n {
			continue
		}
		i := i
		plans = append(plans,
			plan{fmt.Sprintf("far@%d", i), func(l, rm *bulkProg[T]) {
				l.A[i], rm.A[i] = k.val(i), k.far(k.val(i))
			}, &[2]bool{false, false}},
			plan{fmt.Sprintf("near@%d", i), func(l, rm *bulkProg[T]) {
				l.A[i], rm.A[i] = k.val(i), k.near(k.val(i))
			}, &[2]bool{false, k.nearOK}})
		for j, tw := range k.twins {
			tw := tw
			plans = append(plans, plan{fmt.Sprintf("twin%d@%d", j, i), func(l, rm *bulkProg[T]) {
				l.A[i], rm.A[i] = tw[0], tw[1]
			}, &[2]bool{true, true}})
		}
	}
	if n > per {
		plans = append(plans, plan{"across-blocks", func(l, rm *bulkProg[T]) {
			l.A[per-1], rm.A[per-1] = k.val(1), k.far(k.val(1))
			l.A[per], rm.A[per] = k.val(2), k.far(k.val(2))
		}, &[2]bool{false, false}})
	}
	if n > 0 {
		plans = append(plans,
			plan{"every-third", func(l, rm *bulkProg[T]) { // saturates MaxMismatches at n=4097
				for i := 0; i < n; i += 3 {
					l.A[i], rm.A[i] = k.val(i), k.far(k.val(i))
				}
			}, &[2]bool{false, false}})
	}
	for _, pl := range plans {
		local, remote := st.clone(), st.clone()
		pl.apply(local, remote)
		data := mustPack(t, remote.with(k.ref))
		for ti, tol := range []float64{0, 1e-9} {
			got, gotErr := Check(local.with(k.pipe), data, tol)
			want, wantErr := Check(local.with(k.ref), data, tol)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("%s tol %g: errors %v / %v", pl.name, tol, gotErr, wantErr)
			}
			if got.Match != want.Match || !sameMismatches(got.Mismatches, want.Mismatches) {
				t.Fatalf("%s tol %g:\n bulk %v\n walk %v", pl.name, tol, got, want)
			}
			if pl.match != nil && want.Match != pl.match[ti] {
				t.Fatalf("%s tol %g: match %v, want %v (%v)", pl.name, tol, want.Match, pl.match[ti], want.Mismatches)
			}
		}
	}
}

// short holds structural errors on truncated buffers — and the state a
// failed traversal leaves behind — to the element walk's.
func (k bulkKind[T]) short(t *testing.T, st *bulkProg[T]) {
	data := mustPack(t, st.with(k.ref))
	spans := FieldSpans(st.with(k.pipe))
	a, b := spans["a"], spans["b"]
	cuts := map[int]bool{}
	for _, c := range []int{0, 3, a.Lo + 1, a.Lo + 4, a.Lo + 4 + k.size/2, (a.Lo + a.Hi) / 2, a.Hi - 1, a.Hi,
		a.Hi + 3, b.Lo + 2, b.Lo + 4, (b.Lo+b.Hi)/2 + 1, len(data) - 1} {
		if c >= 0 && c < len(data) {
			cuts[c] = true
		}
	}
	for cut := range cuts {
		var text, state [2]string
		for side, pipe := range []func(*PUPer, *[]T){k.pipe, k.ref} {
			dst := &bulkProg[T]{pipe: pipe}
			err := Unpack(data[:cut], dst)
			if err == nil {
				t.Fatalf("cut %d: unpack of a truncated stream succeeded", cut)
			}
			text[side], state[side] = err.Error(), string(mustPack(t, dst.with(k.ref)))
		}
		if text[0] != text[1] || state[0] != state[1] {
			t.Fatalf("cut %d unpack:\n bulk %s\n walk %s (state equal: %v)", cut, text[0], text[1], state[0] == state[1])
		}
		for side, pipe := range []func(*PUPer, *[]T){k.pipe, k.ref} {
			_, err := Check(st.with(pipe), data[:cut], 0)
			text[side] = errText(err)
		}
		if text[0] != text[1] || text[0] == "<nil>" {
			t.Fatalf("cut %d check:\n bulk %s\n walk %s", cut, text[0], text[1])
		}
		for side, pipe := range []func(*PUPer, *[]T){k.pipe, k.ref} {
			buf := make([]byte, cut)
			p := NewPacker(buf)
			st.with(pipe).Pup(p)
			text[side] = fmt.Sprint(errText(p.Err()), p.Offset(), p.overflow)
			state[side] = string(buf)
		}
		if text[0] != text[1] || state[0] != state[1] {
			t.Fatalf("cut %d pack:\n bulk %s\n walk %s (bytes equal: %v)", cut, text[0], text[1], state[0] == state[1])
		}
	}
	longer := st.clone()
	longer.A = append(longer.A, k.val(1))
	remote := mustPack(t, longer.with(k.ref))
	_, gotErr := Check(st.with(k.pipe), remote, 0)
	_, wantErr := Check(st.with(k.ref), remote, 0)
	if gotErr == nil || errText(gotErr) != errText(wantErr) {
		t.Fatalf("length mismatch:\n bulk %v\n walk %v", gotErr, wantErr)
	}
}

// touch rewrites everything rs overlaps, as an honest tracker's program
// would have, and sometimes a scalar nobody marked.
func (k bulkKind[T]) touch(st *bulkProg[T], spans map[string]Range, rs []Range, r *rand.Rand) {
	hit := func(lo, hi int) bool {
		for _, x := range rs {
			if x.Lo < hi && lo < x.Hi {
				return true
			}
		}
		return false
	}
	for i := range st.A {
		if lo := spans["a"].Lo + 4 + i*k.size; hit(lo, lo+k.size) {
			st.A[i] = k.rnd(r)
		}
	}
	for i := range st.B {
		if lo := spans["b"].Lo + 4 + i*k.size; hit(lo, lo+k.size) {
			st.B[i] = k.rnd(r)
		}
	}
	if hit(spans["mid"].Lo, spans["mid"].Hi) || r.Intn(3) == 0 {
		st.Mid = r.NormFloat64()
	}
	if hit(spans["head"].Lo, spans["head"].Hi) || r.Intn(3) == 0 {
		st.Head = r.Int()
	}
}

// sameDirtyPack holds a bulk DirtyPackResult to the walk's and to a fresh
// pack. Without a wire view the fallback self-checks every element as a
// scalar, so Dirty and Reused legitimately differ and only the splice
// contract is asserted.
func (k bulkKind[T]) sameDirtyPack(t *testing.T, what string, got, want DirtyPackResult, prev, fresh []byte) {
	t.Helper()
	if !bytes.Equal(got.Data, fresh) || !bytes.Equal(want.Data, fresh) {
		t.Fatalf("%s: stream differs from a fresh pack (bulk ok %v, walk ok %v)", what,
			bytes.Equal(got.Data, fresh), bytes.Equal(want.Data, fresh))
	}
	if got.Spliced != want.Spliced || got.Fast != want.Fast {
		t.Fatalf("%s: spliced/fast %v/%v, walk %v/%v", what, got.Spliced, got.Fast, want.Spliced, want.Fast)
	}
	if !k.view() {
		if got.Spliced {
			checkSpliceInvariant(t, got, prev)
		}
		return
	}
	if got.Reused != want.Reused || !reflect.DeepEqual(got.Dirty, want.Dirty) {
		t.Fatalf("%s:\n bulk dirty %v reused %d\n walk dirty %v reused %d", what, got.Dirty, got.Reused, want.Dirty, want.Reused)
	}
}

func (k bulkKind[T]) dirty(t *testing.T, st *bulkProg[T], r *rand.Rand) {
	spans := FieldSpans(st.with(k.pipe))
	a, b := spans["a"], spans["b"]
	body := a.Lo + 4
	size := len(mustPack(t, st.with(k.ref)))
	random := make([]Range, 1+r.Intn(4))
	for i := range random {
		lo := r.Intn(size)
		random[i] = Range{Lo: lo, Hi: lo + 1 + r.Intn(3*checkBlock)}
	}
	plans := [][]Range{
		nil,             // covers nothing
		{{body, a.Hi}},  // covers A's body exactly
		{{0, rangeMax}}, // MarkAll
		{{body + k.size/2, body + k.size + (k.size+1)/2}}, // cuts two elements mid-way
		{{body + 1, body + 2}, {body + 5, body + 6}},      // two marks inside one element
		{{a.Hi - k.size, b.Lo + 4 + 1}},                   // A's tail, Mid, B's prefix and head
		random,
	}
	both := func(st *bulkProg[T], pack func(obj Pupable) (DirtyPackResult, error)) (got, want DirtyPackResult) {
		t.Helper()
		got, err := pack(st.with(k.pipe))
		if err != nil {
			t.Fatal(err)
		}
		want, err = pack(st.with(k.ref))
		if err != nil {
			t.Fatal(err)
		}
		return got, want
	}
	ranges := func(rs ...[]Range) []Range { // a fresh copy: the packers normalize in place
		var out []Range
		for _, x := range rs {
			out = append(out, x...)
		}
		return out
	}
	for j, rs2 := range plans {
		rs1 := plans[(j+1)%len(plans)]
		s0 := st.clone()
		base := mustPack(t, s0.with(k.ref))

		s1 := s0.clone()
		k.touch(s1, spans, rs1, r)
		got, want := both(s1, func(obj Pupable) (DirtyPackResult, error) {
			return PackDirtyInto(obj, make([]byte, 0, len(base)), base, ranges(rs1))
		})
		k.sameDirtyPack(t, fmt.Sprintf("plan %d PackDirtyInto", j), got, want, base, mustPack(t, s1.with(k.ref)))
		if !got.Spliced {
			t.Fatalf("plan %d: same-shape dirty pack did not splice", j)
		}
		prev, stale := got.Data, got.Dirty

		s2 := s1.clone()
		k.touch(s2, spans, rs2, r)
		got, want = both(s2, func(obj Pupable) (DirtyPackResult, error) {
			return PackDirtyPatch(obj, append([]byte(nil), base...)[:0], prev, ranges(rs2), ranges(rs2, stale))
		})
		k.sameDirtyPack(t, fmt.Sprintf("plan %d PackDirtyPatch", j), got, want, prev, mustPack(t, s2.with(k.ref)))
		if !got.Spliced {
			t.Fatalf("plan %d: same-shape patch did not splice", j)
		}
	}

	// A grown field: too small a buffer overflows into the two-pass
	// fallback, a roomy one diverges at the prefix; neither splices.
	base := mustPack(t, st.with(k.ref))
	grown := st.clone()
	grown.A = append(grown.A, k.val(1))
	fresh := mustPack(t, grown.with(k.ref))
	for _, room := range []int{len(base), len(fresh) + 64} {
		got, want := both(grown, func(obj Pupable) (DirtyPackResult, error) {
			return PackDirtyInto(obj, make([]byte, 0, room), base, ranges(plans[2]))
		})
		k.sameDirtyPack(t, fmt.Sprintf("grown into %d", room), got, want, base, fresh)
		if got.Spliced {
			t.Fatalf("grown into %d: spliced across a shape change", room)
		}
	}
}

func runBulkKinds(t *testing.T) {
	float64Kind.run(t)
	int64Kind.run(t)
	intKind.run(t)
	float32Kind.run(t)
	byteKind.run(t)
}

// TestBulkMatchesElementWalk is the property: every traversal of every bulk
// field kind behaves byte for byte like the per-element walk it replaced.
func TestBulkMatchesElementWalk(t *testing.T) { runBulkKinds(t) }

// TestBulkFallbackMatchesElementWalk runs the same property with the wire
// view unavailable — the big-endian host's code path.
func TestBulkFallbackMatchesElementWalk(t *testing.T) { ElementWalk(func() { runBulkKinds(t) }) }

// An empty bulk field inside a dirty range used to index its element 0.
func TestEmptyBulkBodyInsideDirtyRange(t *testing.T) {
	st := &bulkProg[float64]{pipe: (*PUPer).Float64s, B: []float64{1, 2}}
	prev := mustPack(t, st)
	st.B[1] = 3
	res, err := PackDirtyInto(st, make([]byte, 0, len(prev)), prev, []Range{{0, rangeMax}})
	if err != nil || !res.Spliced || !bytes.Equal(res.Data, mustPack(t, st)) {
		t.Fatalf("err %v, spliced %v", err, res.Spliced)
	}
}

// Steady-state capture must not allocate more than it did per element: the
// view and the method values are free. The bounds are the parent commit's.
func TestBulkSteadyStateAllocs(t *testing.T) {
	tp := newTrackedProg(4096, 512)
	prev := mustPack(t, tp)
	buf := make([]byte, 0, len(prev))
	base := append([]byte(nil), prev...)
	vals := FieldSpans(tp)["vals"]
	dirty, reencode := make([]Range, 0, 4), make([]Range, 0, 4)
	for _, c := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"PackInto", 0, func() { PackInto(tp, buf) }},
		{"PackDirtyInto", 1, func() {
			dirty = append(dirty[:0], vals.Slice(3, 9, 8))
			PackDirtyInto(tp, buf, prev, dirty)
		}},
		{"PackDirtyPatch", 2, func() {
			dirty = append(dirty[:0], vals.Slice(3, 9, 8))
			reencode = append(reencode[:0], vals.Slice(3, 20, 8))
			PackDirtyPatch(tp, base[:0], prev, dirty, reencode)
		}},
	} {
		if got := testing.AllocsPerRun(100, c.op); got > c.max {
			t.Errorf("%s: %v allocs/op, parent had %v", c.name, got, c.max)
		}
	}
}
