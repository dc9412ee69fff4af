package floats

import (
	"math"
	"testing"
)

func TestAlmostEqual(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1 + 1e-13, 1e-12, true},
		{1, 1 + 1e-9, 1e-12, false},
		{0, 1e-13, 1e-12, true},
		{0, 1e-6, 1e-12, false},
		{1e300, 1e300 * (1 + 1e-13), 1e-12, true},
		{inf, inf, 1e-12, true},
		{-inf, -inf, 1e-12, true},
		{inf, -inf, 1e-12, false},
		{inf, 1e308, 1e-12, false},
		{nan, nan, 1e-12, false},
		{nan, 1, 1e-12, false},
		{1, nan, 1e-12, false},
	}
	for _, c := range cases {
		if got := AlmostEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("AlmostEqual(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestNearAndZero(t *testing.T) {
	if !Near(1.0/3.0*3.0, 1.0) {
		t.Error("Near(1/3*3, 1) = false")
	}
	if !Zero(0) || !Zero(1e-14) || Zero(1e-6) {
		t.Error("Zero tolerance wrong")
	}
	if Zero(math.NaN()) {
		t.Error("Zero(NaN) = true")
	}
	if Positive(1e-14) || !Positive(1e-6) || Positive(-1) {
		t.Error("Positive tolerance wrong")
	}
}

func TestWithinRel(t *testing.T) {
	if !WithinRel(100, 100.0000001, 1e-6) {
		t.Error("WithinRel small relative error rejected")
	}
	if WithinRel(100, 101, 1e-6) {
		t.Error("WithinRel large relative error accepted")
	}
	if !WithinRel(0, 0, 1e-300) {
		t.Error("WithinRel(0, 0) = false")
	}
	if WithinRel(math.NaN(), math.NaN(), 1) {
		t.Error("WithinRel(NaN, NaN) = true")
	}
	if !WithinRel(math.Inf(1), math.Inf(1), 1e-9) {
		t.Error("WithinRel(+Inf, +Inf) = false")
	}
	if WithinRel(math.Inf(1), 1e308, 1e-9) {
		t.Error("WithinRel(+Inf, 1e308) = true")
	}
}

func TestClose(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		a, b, tol float64
		want      bool
	}{
		{100, 100.0000001, 1e-6, true}, // relative
		{100, 101, 1e-6, false},
		{0, 5e-10, 1e-6, true}, // under the tol*1e-3 absolute floor
		{0, 2e-9, 1e-6, false}, // over it
		{1e-12, 1e-12, 1e-300, true},
		{math.NaN(), math.NaN(), 1, false},
		{math.NaN(), 1, 1, false},
		{inf, inf, 1e-9, true},
		{-inf, -inf, 1e-9, true},
		{inf, -inf, 1, false},
		{inf, 1, 1e-9, false}, // tol*Inf would accept any finite value
		{1, inf, 1e-9, false},
		{-inf, 0, 1, false},
	} {
		if got := Close(tc.a, tc.b, tc.tol); got != tc.want {
			t.Errorf("Close(%v, %v, %v) = %v, want %v", tc.a, tc.b, tc.tol, got, tc.want)
		}
	}
}
