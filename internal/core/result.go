package core

import (
	"fmt"
	"strings"
)

// Result holds the steady-state performance measures of a switch, one
// entry per traffic class, in class order.
type Result struct {
	// Switch is the model the result was computed for.
	Switch Switch
	// Method names the evaluator that produced the result
	// ("direct", "convolution", "algorithm1", "algorithm2",
	// "asymptotic").
	Method string
	// Tier records which dispatch tier answered (TierExact or
	// TierAsymptotic) when the result came through SolveAuto,
	// TryAsymptotic or SolveAsymptotic; empty when the caller invoked
	// an evaluator directly.
	Tier string
	// ErrorBound, when non-nil, holds the asymptotic tier's
	// self-reported per-class relative-error bounds: |measure -
	// exact|/exact <= ErrorBound[r] for NonBlocking, Blocking and
	// Concurrency alike. Nil for exact results. An entry at or above
	// asymptotic.BoundUnusable means the expansion declared itself
	// unusable for that class.
	ErrorBound []float64
	// NonBlocking is B_r(N) = G(N - a_r I)/G(N) (paper Eq. 4): the
	// time-average probability that one particular candidate route for
	// class r is entirely idle. This is time congestion; for
	// non-Poisson classes it differs from the fraction of arrivals
	// blocked (call congestion), which the simulator measures
	// separately.
	NonBlocking []float64
	// Blocking is 1 - NonBlocking, the quantity the paper's figures
	// and Table 2 plot.
	Blocking []float64
	// Concurrency is E_r(N), the mean number of class-r connections in
	// progress (paper Section 3).
	Concurrency []float64
	// LogG is ln G(N), the log of the normalization constant, exposed
	// for diagnostics and cross-evaluator comparison.
	LogG float64
	// Occupancy, when non-nil, is the distribution of the total number
	// of busy inputs: Occupancy[s] = P(k.A = s) for s = 0..min(N1,N2).
	// Populated by SolveConvolution.
	Occupancy []float64
	// ClassMarginals, when non-nil, holds the full per-class count
	// distributions: ClassMarginals[r][j] = P(k_r = j). Populated by
	// SolveConvolution.
	ClassMarginals [][]float64
}

// CarriedPeakedness returns the variance-to-mean ratio of the class's
// carried connection count, computed from its marginal distribution.
// It requires ClassMarginals (SolveConvolution) and panics otherwise:
// calling it on another evaluator's result is a programming error.
func (r *Result) CarriedPeakedness(class int) float64 {
	if r.ClassMarginals == nil {
		//lint:allow libpanic documented usage contract: marginals exist only for the convolution evaluator
		panic("core: CarriedPeakedness needs ClassMarginals (use SolveConvolution)")
	}
	m := r.ClassMarginals[class]
	mean, second := 0.0, 0.0
	for j, p := range m {
		mean += float64(j) * p
		second += float64(j) * float64(j) * p
	}
	if mean == 0 { //lint:allow floatcmp guards exact division by zero; a tiny nonzero mean stays a well-conditioned same-scale ratio
		return 0
	}
	return (second - mean*mean) / mean
}

// Throughput returns the class-r completion rate E_r * mu_r.
func (r *Result) Throughput(class int) float64 {
	return r.Concurrency[class] * r.Switch.Classes[class].Mu
}

// Utilization returns the mean fraction of the switch's occupancy
// capacity in use: sum_r a_r E_r / min(N1, N2). The switch dimensions
// must be positive (Switch.Validate enforces it), so the divisor is
// at least 1.
func (r *Result) Utilization() float64 {
	busy := 0.0
	for i, c := range r.Switch.Classes {
		busy += float64(c.A) * r.Concurrency[i]
	}
	return busy / float64(r.Switch.MinN())
}

// Revenue returns the weighted throughput W(N) = sum_r w_r E_r(N)
// (paper Section 4). The weights slice must have one entry per class.
func (r *Result) Revenue(weights []float64) float64 {
	if len(weights) != len(r.Concurrency) {
		//lint:allow libpanic weight/class arity mismatch is a programming error, like a mis-sized matrix
		panic(fmt.Sprintf("core: Revenue: %d weights for %d classes", len(weights), len(r.Concurrency)))
	}
	w := 0.0
	for i, e := range r.Concurrency {
		w += weights[i] * e
	}
	return w
}

// MaxErrorBound returns the largest per-class error bound, or 0 when
// the result is exact (ErrorBound nil): the single number dispatch
// tolerance checks compare against.
func (r *Result) MaxErrorBound() float64 {
	b := 0.0
	for _, v := range r.ErrorBound {
		if v > b {
			b = v
		}
	}
	return b
}

// String formats the result as a one-line-per-class summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d switch (%s):", r.Switch.N1, r.Switch.N2, r.Method)
	for i, c := range r.Switch.Classes {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("class%d", i+1)
		}
		fmt.Fprintf(&b, " %s{a=%d B=%.6g E=%.6g}", name, c.A, r.Blocking[i], r.Concurrency[i])
	}
	return b.String()
}

// newResult starts an exact evaluator's Result for sw. Its three
// per-class measure slices share one allocation, each capped at its
// length so that an append to one cannot write into the next.
func newResult(sw Switch, method string) *Result {
	r := len(sw.Classes)
	m := make([]float64, 3*r)
	return &Result{
		Switch:      sw,
		Method:      method,
		NonBlocking: m[:r:r],
		Concurrency: m[r : 2*r : 2*r],
		Blocking:    m[2*r:],
	}
}

// finish derives Blocking from NonBlocking and sanity-clamps rounding
// noise at the probability boundaries.
func (r *Result) finish() {
	for i, nb := range r.NonBlocking {
		if nb < 0 {
			nb = 0
		}
		if nb > 1 {
			nb = 1
		}
		r.NonBlocking[i] = nb
		r.Blocking[i] = 1 - nb
	}
}
