package failure

import (
	"fmt"
	"math"
)

// FitWeibull returns the maximum-likelihood Weibull distribution for the
// observed inter-failure times, solving the profile-likelihood equation for
// the shape by Newton iteration with a bisection fallback.
func FitWeibull(gaps []float64) (Weibull, error) {
	n := len(gaps)
	if n < 2 {
		return Weibull{}, fmt.Errorf("failure: need >= 2 samples to fit Weibull, got %d", n)
	}
	meanLog := 0.0
	for _, g := range gaps {
		if g <= 0 {
			return Weibull{}, fmt.Errorf("failure: non-positive gap %v", g)
		}
		meanLog += math.Log(g)
	}
	meanLog /= float64(n)

	// g(k) = sum(x^k ln x)/sum(x^k) - 1/k - meanLog; root in k.
	g := func(k float64) float64 {
		var sxk, sxkl float64
		for _, x := range gaps {
			xk := math.Pow(x, k)
			sxk += xk
			sxkl += xk * math.Log(x)
		}
		return sxkl/sxk - 1/k - meanLog
	}

	// Bracket the root: g is increasing in k; g(k)->-inf as k->0+ and
	// g(k) -> max(ln x) - meanLog > 0 as k->inf (for non-degenerate data).
	lo, hi := 1e-3, 1.0
	for g(hi) < 0 && hi < 1e6 {
		hi *= 2
	}
	if g(hi) < 0 {
		return Weibull{}, fmt.Errorf("failure: Weibull fit failed to bracket (degenerate samples?)")
	}
	// Bisection with a few extra digits; robust and fast enough for the
	// small windows used online.
	for i := 0; i < 200 && hi-lo > 1e-10*hi; i++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	var sxk float64
	for _, x := range gaps {
		sxk += math.Pow(x, k)
	}
	lambda := math.Pow(sxk/float64(n), 1/k)
	return NewWeibull(k, lambda)
}

// PowerLawFit is the Crow-AMSAA maximum-likelihood fit of a power-law NHPP
// to failure times observed on [0, T]:
//
//	shape = n / sum(ln(T/t_i)),   scale = T / n^(1/shape).
//
// Its intensity at observation time T, shape/scale * (T/scale)^(shape-1),
// is the "current trend of the distribution" that ACR's adaptive mode
// tracks (§2.2).
type PowerLawFit struct {
	Shape float64
	Scale float64
	T     float64 // observation window end
	N     int     // number of observed failures
}

// FitPowerLaw fits the power-law process to failure times on (0, T].
func FitPowerLaw(times []float64, T float64) (PowerLawFit, error) {
	n := len(times)
	if n < 2 {
		return PowerLawFit{}, fmt.Errorf("failure: need >= 2 failures to fit power law, got %d", n)
	}
	if T <= 0 {
		return PowerLawFit{}, fmt.Errorf("failure: non-positive window %v", T)
	}
	sum := 0.0
	for _, t := range times {
		if t <= 0 || t > T {
			return PowerLawFit{}, fmt.Errorf("failure: time %v outside (0, %v]", t, T)
		}
		sum += math.Log(T / t)
	}
	if sum <= 0 {
		return PowerLawFit{}, fmt.Errorf("failure: degenerate failure times")
	}
	shape := float64(n) / sum
	scale := T / math.Pow(float64(n), 1/shape)
	return PowerLawFit{Shape: shape, Scale: scale, T: T, N: n}, nil
}

// Intensity returns the fitted instantaneous failure rate at time t.
func (f PowerLawFit) Intensity(t float64) float64 {
	if t <= 0 {
		t = math.SmallestNonzeroFloat64
	}
	return f.Shape / f.Scale * math.Pow(t/f.Scale, f.Shape-1)
}

// History accumulates observed failure times online and exposes rate
// estimates. It is the state behind ACR's adaptive checkpointing mode.
type History struct {
	times []float64
}

// Record appends a failure observed at absolute time t (seconds). Times
// must be recorded in nondecreasing order.
func (h *History) Record(t float64) {
	if len(h.times) > 0 && t < h.times[len(h.times)-1] {
		// Clamp rather than panic: concurrent detectors may race by tiny
		// amounts and ordering noise must not corrupt the estimate.
		t = h.times[len(h.times)-1]
	}
	h.times = append(h.times, t)
}

// MeanMTBF returns the plain average inter-failure time, or +Inf with ok ==
// false when fewer than two failures have been seen.
func (h *History) MeanMTBF() (float64, bool) {
	if len(h.times) < 2 {
		return math.Inf(1), false
	}
	span := h.times[len(h.times)-1] - h.times[0]
	if span <= 0 {
		return math.Inf(1), false
	}
	return span / float64(len(h.times)-1), true
}

// CurrentMTBF estimates the mean time to the next failure as of time now,
// preferring the power-law trend fit and falling back to the plain mean
// when the fit is unavailable. ok is false when fewer than two failures
// have been recorded.
func (h *History) CurrentMTBF(now float64) (float64, bool) {
	if len(h.times) >= 2 && now > 0 {
		if fit, err := FitPowerLaw(h.times, now); err == nil {
			m := 1 / fit.Intensity(now)
			if m > 0 && !math.IsInf(m, 1) && !math.IsNaN(m) {
				return m, true
			}
		}
	}
	return h.MeanMTBF()
}

// WeibullMTBF estimates the mean time to the next failure by fitting an
// i.i.d. Weibull renewal process to the inter-failure gaps and evaluating
// the reciprocal hazard at the current age (time since the last failure).
// This is the "fit the actual observed failures to a certain distribution"
// alternative of §2.2: with shape < 1 the hazard decays as the system
// survives longer, so the estimate grows with the failure-free age.
// ok is false with fewer than three failures (two gaps).
func (h *History) WeibullMTBF(now float64) (float64, bool) {
	if len(h.times) < 3 {
		return math.Inf(1), false
	}
	gaps := make([]float64, 0, len(h.times)-1)
	for i := 1; i < len(h.times); i++ {
		if g := h.times[i] - h.times[i-1]; g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) < 2 {
		return math.Inf(1), false
	}
	w, err := FitWeibull(gaps)
	if err != nil {
		return h.MeanMTBF()
	}
	age := now - h.times[len(h.times)-1]
	if age <= 0 {
		age = math.SmallestNonzeroFloat64
	}
	hz := w.Hazard(age)
	if hz <= 0 || math.IsInf(hz, 1) || math.IsNaN(hz) {
		return h.MeanMTBF()
	}
	return 1 / hz, true
}
