// Package failure models the error processes ACR is built to survive:
// the Weibull inter-failure distribution, FIT-rate conversions, the
// power-law failure schedule of the Figure 12 adaptivity run, bit-flip SDC
// injection (§6.1), and online estimation of the current failure rate from
// the observed failure stream (§2.2, "Adapting to Failures").
package failure

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Weibull is the distribution found to fit HPC failure logs best
// (Schroeder & Gibson [29]); Shape < 1 gives the decreasing failure rate
// observed in practice.
type Weibull struct {
	Shape float64 // k
	Scale float64 // lambda, seconds
}

// NewWeibull returns a Weibull distribution.
func NewWeibull(shape, scale float64) (Weibull, error) {
	if shape <= 0 || scale <= 0 || math.IsNaN(shape) || math.IsNaN(scale) {
		return Weibull{}, fmt.Errorf("failure: Weibull needs positive shape/scale, got k=%v lambda=%v", shape, scale)
	}
	return Weibull{Shape: shape, Scale: scale}, nil
}

// Hazard returns (k/lambda) (t/lambda)^(k-1); decreasing in t for k < 1.
func (w Weibull) Hazard(t float64) float64 {
	if t <= 0 {
		t = math.SmallestNonzeroFloat64
	}
	return w.Shape / w.Scale * math.Pow(t/w.Scale, w.Shape-1)
}

func (w Weibull) String() string {
	return fmt.Sprintf("Weibull(k=%.3g, lambda=%.4g s)", w.Shape, w.Scale)
}

// FIT conversions. A FIT is one failure per 10^9 device-hours.

// FITToMTBF converts a per-device FIT rate and a device count to a
// system-level mean time between failures in seconds.
func FITToMTBF(fitPerDevice float64, devices int) float64 {
	if fitPerDevice <= 0 || devices <= 0 {
		return math.Inf(1)
	}
	hours := 1e9 / (fitPerDevice * float64(devices))
	return hours * 3600
}

// SocketYearsToMTBF converts a per-socket MTBF expressed in years (the
// paper uses 50 years/socket, the Jaguar figure [30]) and a socket count to
// a system MTBF in seconds.
func SocketYearsToMTBF(years float64, sockets int) float64 {
	if years <= 0 || sockets <= 0 {
		return math.Inf(1)
	}
	const secondsPerYear = 365.25 * 24 * 3600
	return years * secondsPerYear / float64(sockets)
}

// Schedule is an increasing sequence of absolute failure times (seconds).
type Schedule []float64

// FixedCountPowerLawSchedule scales a power-law process so that exactly n
// failures land on [0, horizon]: it draws arrival fractions from the
// conditional distribution (order statistics of U^(1/shape)). This mirrors
// the paper's controlled injection of exactly 19 failures in 30 minutes.
func FixedCountPowerLawSchedule(shape float64, n int, horizon float64, rng *rand.Rand) Schedule {
	s := make(Schedule, n)
	for i := range s {
		u := rng.Float64()
		s[i] = horizon * math.Pow(u, 1/shape)
	}
	sort.Float64s(s)
	return s
}
