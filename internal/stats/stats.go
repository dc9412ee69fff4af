// Package stats provides the estimation machinery for the simulation
// experiments: running moments (Welford), time-weighted averages for
// continuous-time state processes, and batch-means confidence
// intervals.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates a sample mean and variance in one pass with
// numerically stable updates. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// TimeWeighted accumulates the time average of a piecewise-constant
// process: call Observe(t, v) at each change point with the new value;
// the value v persists until the next call. The zero value is ready;
// the first Observe sets the origin.
type TimeWeighted struct {
	started  bool
	lastT    float64
	lastV    float64
	area     float64
	duration float64
}

// Observe records that the process takes value v from time t onward.
// Times must be non-decreasing.
func (tw *TimeWeighted) Observe(t, v float64) {
	if tw.started {
		if t < tw.lastT {
			//lint:allow libpanic simulator clock monotonicity invariant; a violation means the event queue itself is broken
			panic(fmt.Sprintf("stats: time went backwards: %v < %v", t, tw.lastT))
		}
		dt := t - tw.lastT
		tw.area += tw.lastV * dt
		tw.duration += dt
	}
	tw.started = true
	tw.lastT = t
	tw.lastV = v
}

// CloseAt finalizes the accumulation at time t without changing the
// value, and may be called once at the end of a run.
func (tw *TimeWeighted) CloseAt(t float64) { tw.Observe(t, tw.lastV) }

// Mean returns the time average over the observed horizon.
func (tw *TimeWeighted) Mean() float64 {
	if tw.duration == 0 { //lint:allow floatcmp guards exact division by zero; a tiny horizon is a well-conditioned area/duration ratio
		return 0
	}
	return tw.area / tw.duration
}

// Duration returns the accumulated time span.
func (tw *TimeWeighted) Duration() float64 { return tw.duration }

// CI is a two-sided confidence interval around a point estimate.
type CI struct {
	Mean      float64
	HalfWidth float64
	SE        float64 // standard error of the mean (HalfWidth / t-quantile)
	Level     float64 // e.g. 0.95
	N         int     // batches or samples behind the estimate
}

// Lo returns the interval's lower endpoint.
func (c CI) Lo() float64 { return c.Mean - c.HalfWidth }

// Hi returns the interval's upper endpoint.
func (c CI) Hi() float64 { return c.Mean + c.HalfWidth }

// Contains reports whether v lies inside the interval.
func (c CI) Contains(v float64) bool { return v >= c.Lo() && v <= c.Hi() }

func (c CI) String() string {
	return fmt.Sprintf("%.6g ± %.3g (%.0f%%, n=%d)", c.Mean, c.HalfWidth, c.Level*100, c.N)
}

// BatchMeans builds a confidence interval from independent batch
// estimates, the standard output analysis for steady-state simulation.
func BatchMeans(batches []float64, level float64) CI {
	var w Welford
	for _, b := range batches {
		w.Add(b)
	}
	n := len(batches)
	ci := CI{Mean: w.Mean(), Level: level, N: n}
	if n >= 2 {
		se := w.StdDev() / math.Sqrt(float64(n))
		ci.SE = se
		ci.HalfWidth = TQuantile(n-1, level) * se
	} else {
		ci.SE = math.Inf(1)
		ci.HalfWidth = math.Inf(1)
	}
	return ci
}

// BatchCI is BatchMeans when at least two batches carry an estimate,
// and otherwise the no-data interval NaN ± Inf: a ratio measured in
// fewer than two batches (say, blocking of a class that saw no
// arrivals) has no mean worth reporting and no spread at all.
func BatchCI(batches []float64, level float64) CI {
	if len(batches) < 2 {
		return CI{Mean: math.NaN(), HalfWidth: math.Inf(1), SE: math.Inf(1), Level: level, N: len(batches)}
	}
	return BatchMeans(batches, level)
}

// t-distribution two-sided critical values at the 95% level for small
// degrees of freedom; beyond the table the normal quantile is close
// enough.
var t95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
	2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
	2.048, 2.045, 2.042,
}

var t99 = []float64{
	0, 63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250,
	3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878,
	2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771,
	2.763, 2.756, 2.750,
}

// TQuantile returns the two-sided Student-t critical value for the
// given degrees of freedom at confidence levels 0.95 or 0.99 (other
// levels fall back to the normal approximation).
func TQuantile(df int, level float64) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	var table []float64
	var z float64
	switch {
	case math.Abs(level-0.95) < 1e-9:
		table, z = t95, 1.959964
	case math.Abs(level-0.99) < 1e-9:
		table, z = t99, 2.575829
	default:
		return normalQuantile((1 + level) / 2)
	}
	if df < len(table) {
		return table[df]
	}
	// Fisher's correction toward the normal quantile for large df.
	return z + (z*z*z+z)/(4*float64(df))
}

// normalQuantile returns the standard normal quantile via the
// Beasley-Springer-Moro rational approximation (|error| < 3e-9 on
// (0, 1)).
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: normalQuantile(%v)", p))
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
