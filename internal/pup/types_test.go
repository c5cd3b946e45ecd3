package pup

import (
	"math"
	"testing"
	"testing/quick"
)

// extended exercises the additional wire types.
type extended struct {
	F32     float32
	F32s    []float32
	U16     uint16
	Names   []string
	Metrics map[string]float64
	Counts  map[string]int64
}

func (e *extended) Pup(p *PUPer) {
	p.Label("f32")
	p.Float32(&e.F32)
	p.Label("f32s")
	p.Float32s(&e.F32s)
	p.Label("u16")
	p.Uint16(&e.U16)
	p.Label("names")
	p.Strings(&e.Names)
	p.Label("metrics")
	p.MapStringFloat64(&e.Metrics)
	p.Label("counts")
	p.MapStringInt64(&e.Counts)
}

func sampleExtended() *extended {
	return &extended{
		F32:     3.5,
		F32s:    []float32{1, -2.25, float32(math.Inf(1))},
		U16:     65535,
		Names:   []string{"alpha", "", "gamma"},
		Metrics: map[string]float64{"x": 1.5, "y": -2, "z": 0},
		Counts:  map[string]int64{"a": 1, "b": -9},
	}
}

func TestExtendedRoundTrip(t *testing.T) {
	e := sampleExtended()
	data, err := Pack(e)
	if err != nil {
		t.Fatal(err)
	}
	var back extended
	if err := Unpack(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.F32 != e.F32 || back.U16 != e.U16 {
		t.Fatal("scalar round trip failed")
	}
	if len(back.F32s) != 3 || back.F32s[1] != -2.25 || !math.IsInf(float64(back.F32s[2]), 1) {
		t.Fatalf("f32s = %v", back.F32s)
	}
	if len(back.Names) != 3 || back.Names[0] != "alpha" || back.Names[1] != "" {
		t.Fatalf("names = %v", back.Names)
	}
	if len(back.Metrics) != 3 || back.Metrics["y"] != -2 {
		t.Fatalf("metrics = %v", back.Metrics)
	}
	if len(back.Counts) != 2 || back.Counts["b"] != -9 {
		t.Fatalf("counts = %v", back.Counts)
	}
}

func TestMapPackingDeterministic(t *testing.T) {
	// Two maps built in different insertion orders must pack identically.
	a := &extended{Metrics: map[string]float64{}, Counts: map[string]int64{}}
	b := &extended{Metrics: map[string]float64{}, Counts: map[string]int64{}}
	keys := []string{"k3", "k1", "k9", "k2", "k7", "k5"}
	for i, k := range keys {
		a.Metrics[k] = float64(i)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Metrics[keys[i]] = float64(i)
	}
	da, err := Pack(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Pack(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Fatal("map packing depends on insertion order")
	}
}

func TestExtendedCheckDetectsMutations(t *testing.T) {
	base := sampleExtended()
	data, err := Pack(base)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*extended){
		"f32":     func(e *extended) { e.F32 = 99 },
		"f32s":    func(e *extended) { e.F32s[0] = 7 },
		"u16":     func(e *extended) { e.U16-- },
		"names":   func(e *extended) { e.Names[2] = "delta" },
		"metrics": func(e *extended) { e.Metrics["x"] = 9 },
		"counts":  func(e *extended) { e.Counts["a"] = 2 },
	}
	for label, mutate := range mutations {
		e := sampleExtended()
		mutate(e)
		res, err := Check(e, data, 0)
		if err != nil {
			// Structural divergence (e.g. changed string length) is an
			// acceptable stronger detection.
			continue
		}
		if res.Match {
			t.Errorf("mutation of %s not detected", label)
		}
	}
}

func TestExtendedSizeMatchesPack(t *testing.T) {
	e := sampleExtended()
	data, err := Pack(e)
	if err != nil {
		t.Fatal(err)
	}
	if Size(e) != len(data) {
		t.Fatalf("Size %d != packed %d", Size(e), len(data))
	}
}

func TestFloat32Tolerance(t *testing.T) {
	a := &extended{F32: 1.0, Metrics: map[string]float64{}, Counts: map[string]int64{}}
	data, err := Pack(a)
	if err != nil {
		t.Fatal(err)
	}
	b := &extended{F32: 1.0000001, Metrics: map[string]float64{}, Counts: map[string]int64{}}
	if res, _ := Check(b, data, 0); res.Match {
		t.Fatal("exact compare should flag the difference")
	}
	if res, err := Check(b, data, 1e-5); err != nil || !res.Match {
		t.Fatalf("tolerant compare should accept: %v %v", res, err)
	}
}

func TestMapRoundTripProperty(t *testing.T) {
	f := func(m map[string]float64) bool {
		// NaN values break equality comparison semantics of the test
		// itself (not of pup); normalize them.
		for k, v := range m {
			if math.IsNaN(v) {
				m[k] = 0
			}
		}
		e := &extended{Metrics: m, Counts: map[string]int64{}}
		data, err := Pack(e)
		if err != nil {
			return false
		}
		var back extended
		if err := Unpack(data, &back); err != nil {
			return false
		}
		if len(back.Metrics) != len(m) {
			return false
		}
		for k, v := range m {
			if back.Metrics[k] != v {
				return false
			}
		}
		res, err := Check(&back, data, 0)
		return err == nil && res.Match
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyCollections(t *testing.T) {
	e := &extended{}
	data, err := Pack(e)
	if err != nil {
		t.Fatal(err)
	}
	var back extended
	if err := Unpack(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.F32s) != 0 || len(back.Names) != 0 || len(back.Metrics) != 0 {
		t.Fatal("empty collections should stay empty")
	}
}
