package failure

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestWeibullBasics(t *testing.T) {
	w, err := NewWeibull(0.6, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w.String() == "" {
		t.Fatal("empty String()")
	}
	// k<1: hazard decreasing.
	if !(w.Hazard(1) > w.Hazard(10) && w.Hazard(10) > w.Hazard(100)) {
		t.Fatal("Weibull k<1 hazard must decrease")
	}
	// k=1 reduces to exponential.
	w1, _ := NewWeibull(1, 100)
	if math.Abs(w1.Mean()-100) > 1e-9 {
		t.Fatalf("Weibull(1,100) mean = %v, want 100", w1.Mean())
	}
	if math.Abs(w1.Hazard(5)-0.01) > 1e-12 {
		t.Fatalf("Weibull(1,100) hazard = %v, want 0.01", w1.Hazard(5))
	}
	if _, err := NewWeibull(0, 1); err == nil {
		t.Fatal("zero shape must fail")
	}
	if _, err := NewWeibull(1, 0); err == nil {
		t.Fatal("zero scale must fail")
	}
}

func TestWeibullSampleMean(t *testing.T) {
	w, _ := NewWeibull(0.6, 100)
	rng := rand.New(rand.NewSource(2))
	sum := 0.0
	const n = 300000
	for i := 0; i < n; i++ {
		sum += w.Sample(rng)
	}
	mean := sum / n
	want := w.Mean()
	if math.Abs(mean-want)/want > 0.03 {
		t.Fatalf("sample mean %v, want ~%v", mean, want)
	}
}

func TestFITConversions(t *testing.T) {
	// 100 FIT on one device: 1e7 hours MTBF.
	m := FITToMTBF(100, 1)
	if math.Abs(m-1e7*3600) > 1 {
		t.Fatalf("FITToMTBF = %v", m)
	}
	// Scaling with devices.
	if FITToMTBF(100, 10) != m/10 {
		t.Fatal("MTBF must scale inversely with devices")
	}
	if !math.IsInf(FITToMTBF(0, 5), 1) {
		t.Fatal("zero FIT is infinite MTBF")
	}
}

func TestSocketYearsToMTBF(t *testing.T) {
	// 50 years across 50 sockets: one failure per year.
	m := SocketYearsToMTBF(50, 50)
	if math.Abs(m-365.25*24*3600) > 1 {
		t.Fatalf("MTBF = %v", m)
	}
	if !math.IsInf(SocketYearsToMTBF(0, 5), 1) {
		t.Fatal("zero years is infinite MTBF")
	}
}

func TestFixedCountPowerLawSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := FixedCountPowerLawSchedule(0.6, 19, 1800, rng)
	if len(s) != 19 {
		t.Fatalf("got %d failures, want 19", len(s))
	}
	if !sort.Float64sAreSorted(s) {
		t.Fatal("not sorted")
	}
	for _, x := range s {
		if x < 0 || x > 1800 {
			t.Fatalf("time %v outside [0,1800]", x)
		}
	}
	// Aggregate front-loading check over many draws.
	firstHalf, total := 0, 0
	for trial := 0; trial < 50; trial++ {
		s := FixedCountPowerLawSchedule(0.6, 19, 1800, rng)
		for _, x := range s {
			total++
			if x < 900 {
				firstHalf++
			}
		}
	}
	if frac := float64(firstHalf) / float64(total); frac < 0.55 {
		t.Fatalf("front-loaded fraction = %.2f, want > 0.55", frac)
	}
}

func TestFitWeibullRecoversParameters(t *testing.T) {
	for _, k := range []float64{0.6, 1.0, 1.8} {
		w, _ := NewWeibull(k, 120)
		rng := rand.New(rand.NewSource(7))
		gaps := make([]float64, 20000)
		for i := range gaps {
			gaps[i] = w.Sample(rng)
		}
		fit, err := FitWeibull(gaps)
		if err != nil {
			t.Fatalf("k=%v: %v", k, err)
		}
		if math.Abs(fit.Shape-k)/k > 0.05 {
			t.Errorf("fitted shape %v, want ~%v", fit.Shape, k)
		}
		if math.Abs(fit.Scale-120)/120 > 0.05 {
			t.Errorf("fitted scale %v, want ~120", fit.Scale)
		}
	}
	if _, err := FitWeibull([]float64{1}); err == nil {
		t.Fatal("single sample must fail")
	}
	if _, err := FitWeibull([]float64{1, 0}); err == nil {
		t.Fatal("zero gap must fail")
	}
}

func TestFitPowerLawRecoversShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	shapeSum := 0.0
	const trials = 30
	for i := 0; i < trials; i++ {
		// ~1000 failures: what (t/1)^0.6 predicts on [0, 1e5].
		s := FixedCountPowerLawSchedule(0.6, 1000, 100000, rng)
		fit, err := FitPowerLaw(s, 100000)
		if err != nil {
			t.Fatal(err)
		}
		shapeSum += fit.Shape
	}
	mean := shapeSum / trials
	if math.Abs(mean-0.6) > 0.08 {
		t.Fatalf("mean fitted shape %v, want ~0.6", mean)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1}, 10); err == nil {
		t.Fatal("one failure must fail")
	}
	if _, err := FitPowerLaw([]float64{1, 2}, 0); err == nil {
		t.Fatal("zero window must fail")
	}
	if _, err := FitPowerLaw([]float64{1, 20}, 10); err == nil {
		t.Fatal("time beyond window must fail")
	}
	if _, err := FitPowerLaw([]float64{10, 10}, 10); err == nil {
		t.Fatal("degenerate times must fail")
	}
}

func TestPowerLawFitCurrentMTBFGrowsForDecreasingRate(t *testing.T) {
	// With k<1 the intensity decreases, so the current MTBF at a later
	// observation time must be larger.
	times := []float64{10, 30, 80, 200, 500}
	early, err := FitPowerLaw(times[:3], 100)
	if err != nil {
		t.Fatal(err)
	}
	late, err := FitPowerLaw(times, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if late.CurrentMTBF() <= early.CurrentMTBF() {
		t.Fatalf("current MTBF should grow: early %v, late %v", early.CurrentMTBF(), late.CurrentMTBF())
	}
}

func TestHistory(t *testing.T) {
	var h History
	if _, ok := h.MeanMTBF(); ok {
		t.Fatal("empty history should not estimate")
	}
	if _, ok := h.CurrentMTBF(10); ok {
		t.Fatal("empty history should not estimate")
	}
	h.Record(10)
	if _, ok := h.MeanMTBF(); ok {
		t.Fatal("single failure should not estimate")
	}
	h.Record(30)
	h.Record(70)
	m, ok := h.MeanMTBF()
	if !ok || math.Abs(m-30) > 1e-9 {
		t.Fatalf("mean MTBF = %v, want 30", m)
	}
	if ts := h.times; len(ts) != 3 || ts[0] != 10 {
		t.Fatalf("times = %v", ts)
	}
	// Out-of-order record clamps.
	h.Record(50)
	if h.times[3] != 70 {
		t.Fatal("out-of-order record should clamp to last time")
	}
	// CurrentMTBF returns something positive with a trend fit.
	cm, ok := h.CurrentMTBF(100)
	if !ok || cm <= 0 || math.IsNaN(cm) {
		t.Fatalf("current MTBF = %v, ok=%v", cm, ok)
	}
}

func TestFlipBit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 64)
	orig := make([]byte, 64)
	copy(orig, data)
	i, b := FlipBit(data, rng)
	if i < 0 || b < 0 {
		t.Fatal("flip reported failure on non-empty data")
	}
	diff := 0
	for j := range data {
		if data[j] != orig[j] {
			diff++
			if data[j]^orig[j] != 1<<b || j != i {
				t.Fatalf("unexpected flip at %d", j)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes changed, want 1", diff)
	}
	if i, b := FlipBit(nil, rng); i != -1 || b != -1 {
		t.Fatal("empty data should be a no-op")
	}
}

// Property: inverse-CDF sampling respects the CDF ordering — P(X <= median)
// is about one half.
func TestWeibullMedianProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, _ := NewWeibull(0.8, 50)
		median := 50 * math.Pow(math.Ln2, 1/0.8)
		below := 0
		const n = 2000
		for i := 0; i < n; i++ {
			if w.Sample(rng) <= median {
				below++
			}
		}
		frac := float64(below) / n
		return frac > 0.45 && frac < 0.55
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestWeibullMTBFEstimator(t *testing.T) {
	var h History
	if _, ok := h.WeibullMTBF(10); ok {
		t.Fatal("empty history should not estimate")
	}
	h.Record(1)
	h.Record(2)
	if _, ok := h.WeibullMTBF(10); ok {
		t.Fatal("two failures should not estimate (one gap)")
	}
	// Over-dispersed gaps (coefficient of variation > 1: 0.1, 1, 30)
	// fit a Weibull with shape < 1, so the estimate must grow with
	// failure-free age.
	h.Record(3)    // gap 1
	h.Record(3.1)  // gap 0.1
	h.Record(33.1) // gap 30
	early, ok := h.WeibullMTBF(34)
	if !ok {
		t.Fatal("estimator should engage with three gaps")
	}
	late, ok := h.WeibullMTBF(200)
	if !ok {
		t.Fatal("estimator lost")
	}
	if late <= early {
		t.Fatalf("sub-exponential gaps: estimate should grow with age (%v -> %v)", early, late)
	}
	if early <= 0 {
		t.Fatalf("nonpositive estimate %v", early)
	}
}

// Sample, Mean and CurrentMTBF are the tests' oracles: no program draws
// Weibull variates or asks a fit for its end-of-window MTBF.

// Sample draws a Weibull variate by inversion.
func (w Weibull) Sample(rng *rand.Rand) float64 {
	u := 1 - rng.Float64()
	return w.Scale * math.Pow(-math.Log(u), 1/w.Shape)
}

// Mean returns lambda * Gamma(1 + 1/k).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

// CurrentMTBF returns the reciprocal of the fitted intensity at the end of
// the observation window: the "current observed mean time between
// failures" used to re-derive the checkpoint interval in Figure 12.
func (f PowerLawFit) CurrentMTBF() float64 {
	return 1 / f.Intensity(f.T)
}
