// Package floats holds the shared floating-point comparison helpers
// the repo's numeric code uses instead of raw == / != on float64.
//
// The product-form recursions (Algorithm 1, the convolution solver,
// MVA) accumulate rounding error at every step, and the log-domain and
// dynamically scaled paths reintroduce values through Exp/Log round
// trips, so two mathematically identical quantities rarely compare
// bit-equal. Every equality decision therefore goes through a
// tolerance, consolidated here so the tolerance policy lives in one
// place. The xbarlint floatcmp check points offenders at this package.
package floats

import "math"

// DefaultTol is the tolerance used by Near and Zero. It is loose
// enough to absorb the rounding of the paper's recursions at
// double precision, and tight enough to distinguish any two distinct
// model operating points used in the experiments.
const DefaultTol = 1e-12

// AlmostEqual reports whether a and b are equal to within tol, using a
// hybrid absolute/relative criterion:
//
//	|a-b| <= tol * max(1, |a|, |b|) .
//
// Near zero this behaves like an absolute tolerance; for large
// magnitudes it behaves like a relative one. NaN is not almost equal
// to anything (including NaN); equal infinities are almost equal.
// tol must be non-negative.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //lint:allow floatcmp exact equality short-circuits infinities and exact hits
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		// Unequal infinities, or an infinity against a finite value:
		// tol*scale would itself be infinite and accept anything.
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Close reports whether a and b agree to relative error tol, with an
// absolute floor of tol*1e-3 for values at or near zero:
//
//	|a-b| <= tol * max(|a|, |b|)  or  |a-b| <= tol * 1e-3 .
//
// It is the comparison the solver tests use between two computations
// of one measure. NaN is never close to anything (including NaN), and
// an infinity is close only to the same infinity: against a finite
// value tol*Inf would accept anything.
func Close(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //lint:allow floatcmp exact equality short-circuits infinities and exact hits
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	d := math.Abs(a - b)
	return d <= tol*math.Max(math.Abs(a), math.Abs(b)) || d <= tol*1e-3
}

// Near reports AlmostEqual at DefaultTol.
func Near(a, b float64) bool { return AlmostEqual(a, b, DefaultTol) }

// Zero reports whether x is within DefaultTol of zero. Use it where
// code previously wrote x == 0 on a computed float.
func Zero(x float64) bool { return math.Abs(x) <= DefaultTol }

// Positive reports whether x is strictly greater than DefaultTol,
// i.e. positive by more than rounding noise.
func Positive(x float64) bool { return x > DefaultTol }

// WithinRel reports whether a and b agree to relative error rel,
// |a-b| <= rel * max(|a|, |b|). Both zero counts as within any rel.
// NaN is never within anything.
func WithinRel(a, b, rel float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //lint:allow floatcmp exact equality short-circuits infinities and the both-zero case
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}
