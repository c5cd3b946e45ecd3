package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-th quantile (0..1) of the samples by linear
// interpolation between the two straddling order statistics, the same
// convention as Python's statistics and numpy. Zero for an empty sample.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	r := q * float64(len(s)-1)
	lo, hi := int(math.Floor(r)), int(math.Ceil(r))
	return s[lo] + (r-float64(lo))*(s[hi]-s[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// tailPercents are the tail percentiles the benchmark reports, highest
// first.
var tailPercents = []int{99, 95, 90, 75}

// highestTail returns the highest reportable tail percentile of an
// n-sample series, as a quantile: the largest level with at least ten
// samples beyond it (choosing-metrics guide, section 1). Below 40 samples
// no tail qualifies and the median is all the series supports.
func highestTail(n int) float64 {
	for _, p := range tailPercents {
		if n*(100-p) >= 10*100 {
			return float64(p) / 100
		}
	}
	return 0.5
}

// tail returns the q-th quantile clamped to highestTail: a metric named
// p95 never extrapolates past what its sample count supports. The second
// result is the percentile actually used.
func tail(samples []float64, q float64) (value, used float64) {
	used = math.Min(q, highestTail(len(samples)))
	return quantile(samples, used), used
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// timeCalls runs fn calls+1 times and returns the median duration of one
// call in seconds; the first call pays lazy allocation and is not a
// sample. prep, when non-nil, runs untimed before every call.
func timeCalls(calls int, prep, fn func()) float64 {
	samples := make([]float64, 0, calls)
	for i := 0; i <= calls; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		if d := time.Since(t0); i > 0 {
			samples = append(samples, d.Seconds())
		}
	}
	return median(samples)
}
