package pup

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// demo is a representative application state with every supported kind.
type demo struct {
	Iter   int
	Count  uint64
	Flag   bool
	Temp   float64
	Grid   []float64
	IDs    []int64
	Tags   []int
	Raw    []byte
	Name   string
	Nested inner
}

type inner struct {
	A, B float64
}

func (in *inner) Pup(p *PUPer) {
	p.Label("inner.A")
	p.Float64(&in.A)
	p.Label("inner.B")
	p.Float64(&in.B)
}

func (d *demo) Pup(p *PUPer) {
	p.Label("iter")
	p.Int(&d.Iter)
	p.Label("count")
	p.Uint64(&d.Count)
	p.Label("flag")
	p.Bool(&d.Flag)
	p.Label("temp")
	p.Float64(&d.Temp)
	p.Label("grid")
	p.Float64s(&d.Grid)
	p.Label("ids")
	p.Int64s(&d.IDs)
	p.Label("tags")
	p.Ints(&d.Tags)
	p.Label("raw")
	p.Bytes(&d.Raw)
	p.Label("name")
	p.String(&d.Name)
	p.Object(&d.Nested)
}

func sampleDemo() *demo {
	return &demo{
		Iter:   42,
		Count:  1 << 40,
		Flag:   true,
		Temp:   3.14159,
		Grid:   []float64{1, 2.5, -3, math.Inf(1)},
		IDs:    []int64{-9, 0, 1 << 50},
		Tags:   []int{7, -8},
		Raw:    []byte{0xde, 0xad, 0xbe, 0xef},
		Name:   "jacobi3d",
		Nested: inner{A: 1.5, B: -2.5},
	}
}

func TestRoundTrip(t *testing.T) {
	orig := sampleDemo()
	data, err := Pack(orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != Size(orig) {
		t.Fatalf("pack size %d != Size %d", len(data), Size(orig))
	}
	var back demo
	if err := Unpack(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Iter != orig.Iter || back.Count != orig.Count || back.Flag != orig.Flag ||
		back.Temp != orig.Temp || back.Name != orig.Name || back.Nested != orig.Nested {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, orig)
	}
	for i := range orig.Grid {
		if back.Grid[i] != orig.Grid[i] {
			t.Fatalf("grid[%d] = %v, want %v", i, back.Grid[i], orig.Grid[i])
		}
	}
	for i := range orig.IDs {
		if back.IDs[i] != orig.IDs[i] {
			t.Fatal("ids mismatch")
		}
	}
	for i := range orig.Tags {
		if back.Tags[i] != orig.Tags[i] {
			t.Fatal("tags mismatch")
		}
	}
	if string(back.Raw) != string(orig.Raw) {
		t.Fatal("raw mismatch")
	}
}

func TestCheckMatches(t *testing.T) {
	obj := sampleDemo()
	data, err := Pack(obj)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(obj, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Fatalf("identical state reported mismatch: %v", res.Mismatches)
	}
}

func TestCheckDetectsEveryFieldKind(t *testing.T) {
	base := sampleDemo()
	data, err := Pack(base)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*demo){
		"iter":    func(d *demo) { d.Iter++ },
		"count":   func(d *demo) { d.Count ^= 1 },
		"flag":    func(d *demo) { d.Flag = !d.Flag },
		"temp":    func(d *demo) { d.Temp += 1 },
		"grid":    func(d *demo) { d.Grid[2] = 7 },
		"ids":     func(d *demo) { d.IDs[0] = 8 },
		"tags":    func(d *demo) { d.Tags[1] = 0 },
		"raw":     func(d *demo) { d.Raw[3] ^= 0x80 },
		"name":    func(d *demo) { d.Name = "jacobi3e" },
		"inner.B": func(d *demo) { d.Nested.B = 0 },
	}
	for label, mutate := range mutations {
		d := sampleDemo()
		mutate(d)
		res, err := Check(d, data, 0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Match {
			t.Errorf("mutation of %s not detected", label)
			continue
		}
		if res.Mismatches[0].Label != label {
			t.Errorf("mutation of %s attributed to %s", label, res.Mismatches[0].Label)
		}
	}
}

func TestRelativeTolerance(t *testing.T) {
	base := sampleDemo()
	data, err := Pack(base)
	if err != nil {
		t.Fatal(err)
	}
	d := sampleDemo()
	d.Temp *= 1 + 1e-9 // tiny round-off style difference
	if res, _ := Check(d, data, 0); res.Match {
		t.Fatal("exact compare should flag 1e-9 relative difference")
	}
	if res, _ := Check(d, data, 1e-6); !res.Match {
		t.Fatal("1e-6 tolerance should accept 1e-9 relative difference")
	}
	d.Temp = base.Temp * 1.01
	if res, _ := Check(d, data, 1e-6); res.Match {
		t.Fatal("1%% difference should exceed 1e-6 tolerance")
	}
}

func TestNaNEqualsNaN(t *testing.T) {
	d := &demo{Grid: []float64{math.NaN()}, Temp: math.NaN()}
	data, err := Pack(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(d, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Fatal("NaN should compare equal to itself in checkpoints")
	}
}

func TestStructuralLengthMismatch(t *testing.T) {
	base := sampleDemo()
	data, err := Pack(base)
	if err != nil {
		t.Fatal(err)
	}
	d := sampleDemo()
	d.Grid = append(d.Grid, 5)
	if _, err := Check(d, data, 0); err == nil {
		t.Fatal("length divergence must be a structural error")
	}
}

func TestUnpackShortBuffer(t *testing.T) {
	base := sampleDemo()
	data, err := Pack(base)
	if err != nil {
		t.Fatal(err)
	}
	var back demo
	if err := Unpack(data[:len(data)-3], &back); err == nil {
		t.Fatal("short buffer must fail")
	}
	if err := Unpack(append(data, 0), &back); err == nil {
		t.Fatal("trailing garbage must fail")
	}
}

func TestPackOverflowDetected(t *testing.T) {
	d := sampleDemo()
	p := NewPacker(make([]byte, 4)) // far too small
	d.Pup(p)
	if p.Err() == nil {
		t.Fatal("pack into tiny buffer must error")
	}
}

func TestBitFlipAnywhereDetected(t *testing.T) {
	d := sampleDemo()
	data, err := Pack(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(len(data))
		bit := byte(1) << rng.Intn(8)
		data[i] ^= bit
		res, err := Check(d, data, 0)
		// Flips in length prefixes produce structural errors; everything
		// else must surface as a mismatch.
		if err == nil && res.Match {
			t.Fatalf("bit flip at byte %d undetected", i)
		}
		data[i] ^= bit
	}
}

func TestMismatchSaturation(t *testing.T) {
	a := &demo{Grid: make([]float64, 100)}
	b := &demo{Grid: make([]float64, 100)}
	for i := range b.Grid {
		b.Grid[i] = 1
	}
	data, err := Pack(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(b, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Match {
		t.Fatal("expected mismatches")
	}
	if len(res.Mismatches) > MaxMismatches {
		t.Fatalf("mismatch list not bounded: %d", len(res.Mismatches))
	}
}

func TestMismatchString(t *testing.T) {
	m := Mismatch{Label: "grid", Offset: 12, Local: 1, Remote: 2}
	if !strings.Contains(m.String(), "grid") {
		t.Fatal("Mismatch.String should include the label")
	}
}

func TestModeString(t *testing.T) {
	for m, s := range map[Mode]string{Sizing: "sizing", Packing: "packing", Unpacking: "unpacking", Checking: "checking"} {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should format")
	}
}

// Property: pack/unpack round-trips arbitrary payloads.
func TestRoundTripProperty(t *testing.T) {
	f := func(iter int, count uint64, flag bool, temp float64, grid []float64, raw []byte, name string) bool {
		d := &demo{Iter: iter, Count: count, Flag: flag, Temp: temp, Grid: grid, Raw: raw, Name: name}
		data, err := Pack(d)
		if err != nil {
			return false
		}
		var back demo
		if err := Unpack(data, &back); err != nil {
			return false
		}
		if back.Iter != d.Iter || back.Count != d.Count || back.Flag != d.Flag || back.Name != d.Name {
			return false
		}
		if len(back.Grid) != len(d.Grid) || len(back.Raw) != len(d.Raw) {
			return false
		}
		for i := range d.Grid {
			if back.Grid[i] != d.Grid[i] && !(math.IsNaN(back.Grid[i]) && math.IsNaN(d.Grid[i])) {
				return false
			}
		}
		for i := range d.Raw {
			if back.Raw[i] != d.Raw[i] {
				return false
			}
		}
		// Temp: NaN-aware compare.
		if back.Temp != d.Temp && !(math.IsNaN(back.Temp) && math.IsNaN(d.Temp)) {
			return false
		}
		// Self-check always matches.
		res, err := Check(&back, data, 0)
		return err == nil && res.Match
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPack(b *testing.B) {
	d := &demo{Grid: make([]float64, 1<<16), Raw: make([]byte, 1<<16)}
	b.SetBytes(int64(Size(d)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheck(b *testing.B) {
	d := &demo{Grid: make([]float64, 1<<16), Raw: make([]byte, 1<<16)}
	data, err := Pack(d)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Check(d, data, 0)
		if err != nil || !res.Match {
			b.Fatal("check failed")
		}
	}
}

// floatField is a bare 4 MiB []float64 — the bulk body every internal/apps
// port keeps its state in — for the three traversals that move it.
type floatField struct{ V []float64 }

func (f *floatField) Pup(p *PUPer) { p.Float64s(&f.V) }

func newFloatField() (*floatField, []byte) {
	f := &floatField{V: make([]float64, 4<<20/8)}
	for i := range f.V {
		f.V[i] = float64(i) * 0.25
	}
	data, err := Pack(f)
	if err != nil {
		panic(err)
	}
	return f, data
}

func BenchmarkPackFloat64s(b *testing.B) {
	f, data := newFloatField()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, fast, err := PackInto(f, data[:0]); err != nil || !fast {
			b.Fatal("pack failed")
		}
	}
}

func BenchmarkUnpackFloat64s(b *testing.B) {
	f, data := newFloatField()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Unpack(data, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckFloat64s(b *testing.B) {
	f, data := newFloatField()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Check(f, data, 0)
		if err != nil || !res.Match {
			b.Fatal("check failed")
		}
	}
}
