package scale

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"xbar/internal/floats"
)

func TestZeroValueIsZero(t *testing.T) {
	var n Number
	if !n.IsZero() || n.Float64() != 0 || n.Sign() != 0 {
		t.Errorf("zero value Number is not 0: %v", n)
	}
}

func TestFromFloat64RoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return FromFloat64(x).Float64() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromFloat64PanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromFloat64(NaN) did not panic")
		}
	}()
	FromFloat64(math.NaN())
}

func TestOneConstant(t *testing.T) {
	if One.Float64() != 1 {
		t.Errorf("One = %v, want 1", One.Float64())
	}
}

func TestArithmeticBasics(t *testing.T) {
	a := FromFloat64(3)
	b := FromFloat64(4)
	if got := a.Add(b).Float64(); got != 7 {
		t.Errorf("3+4 = %v", got)
	}
	if got := a.Sub(b).Float64(); got != -1 {
		t.Errorf("3-4 = %v", got)
	}
	if got := a.Mul(b).Float64(); got != 12 {
		t.Errorf("3*4 = %v", got)
	}
	if got := a.Div(b).Float64(); got != 0.75 {
		t.Errorf("3/4 = %v", got)
	}
	if got := a.MulFloat(2).Float64(); got != 6 {
		t.Errorf("3*2 = %v", got)
	}
	if got := a.DivFloat(2).Float64(); got != 1.5 {
		t.Errorf("3/2 = %v", got)
	}
}

func TestAddWithZero(t *testing.T) {
	a := FromFloat64(5)
	if got := a.Add(Zero).Float64(); got != 5 {
		t.Errorf("5+0 = %v", got)
	}
	if got := Zero.Add(a).Float64(); got != 5 {
		t.Errorf("0+5 = %v", got)
	}
	if got := Zero.Add(Zero).Float64(); got != 0 {
		t.Errorf("0+0 = %v", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Div by zero did not panic")
		}
	}()
	FromFloat64(1).Div(Zero)
}

// TestAgainstBigFloat drives random arithmetic chains through both
// scale.Number and math/big.Float and demands agreement, the core
// property behind trusting the scaled Algorithm 1.
func TestAgainstBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := FromFloat64(1)
		b := big.NewFloat(1).SetPrec(200)
		for op := 0; op < 50; op++ {
			x := rng.Float64()*10 + 0.1
			bx := big.NewFloat(x).SetPrec(200)
			switch rng.Intn(3) {
			case 0:
				n = n.Add(FromFloat64(x))
				b.Add(b, bx)
			case 1:
				n = n.Mul(FromFloat64(x))
				b.Mul(b, bx)
			case 2:
				n = n.Div(FromFloat64(x))
				b.Quo(b, bx)
			}
		}
		got := n.Float64()
		want, _ := b.Float64()
		if !floats.WithinRel(got, want, 1e-10) {
			t.Fatalf("trial %d: scale=%v big=%v", trial, got, want)
		}
	}
}

// TestFarBelowUnderflow exercises magnitudes far outside float64 range,
// the regime Algorithm 1 hits for N ~ 256 where Q(N) ~ 1/(256!)^2.
func TestFarBelowUnderflow(t *testing.T) {
	tiny := FromFloat64(1)
	for i := 0; i < 2000; i++ {
		tiny = tiny.DivFloat(1000) // 10^-6000, far beyond float64
	}
	if tiny.IsZero() {
		t.Fatal("scaled number underflowed to zero")
	}
	back := tiny
	for i := 0; i < 2000; i++ {
		back = back.MulFloat(1000)
	}
	if got := back.Float64(); !floats.WithinRel(got, 1, 1e-9) {
		t.Errorf("round trip through 10^-6000 = %v, want 1", got)
	}
	// Ratios of two far-underflowed values are exact.
	a := tiny.MulFloat(3)
	if got := a.Ratio(tiny); !floats.WithinRel(got, 3, 1e-12) {
		t.Errorf("ratio of tiny values = %v, want 3", got)
	}
}

func TestFromLog(t *testing.T) {
	cases := []float64{0, 1, -1, 10, -700, 700, -50000, 50000}
	for _, x := range cases {
		n := FromLog(x)
		if got := n.Log(); !floats.WithinRel(got, x, 1e-9) && math.Abs(got-x) > 1e-9 {
			t.Errorf("FromLog(%v).Log() = %v", x, got)
		}
	}
	if got := FromLog(0).Float64(); !floats.WithinRel(got, 1, 1e-12) {
		t.Errorf("FromLog(0) = %v, want 1", got)
	}
	if got := FromLog(math.Log(42)).Float64(); !floats.WithinRel(got, 42, 1e-12) {
		t.Errorf("FromLog(ln 42) = %v, want 42", got)
	}
}

func TestLogPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Log of negative did not panic")
		}
	}()
	FromFloat64(-2).Log()
}

func TestCmpAndSign(t *testing.T) {
	a := FromFloat64(2)
	b := FromFloat64(3)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("Cmp ordering wrong")
	}
	if FromFloat64(-1).Sign() != -1 || FromFloat64(1).Sign() != 1 {
		t.Error("Sign wrong")
	}
}

func TestCmpAcrossScales(t *testing.T) {
	big := FromLog(10000)
	small := FromLog(-10000)
	if big.Cmp(small) != 1 {
		t.Error("e^10000 should compare greater than e^-10000")
	}
	if small.Cmp(big) != -1 {
		t.Error("e^-10000 should compare less than e^10000")
	}
}

func TestAddAbsorbsNegligible(t *testing.T) {
	huge := FromLog(5000)
	one := FromFloat64(1)
	sum := huge.Add(one)
	if got, want := sum.Log(), huge.Log(); !floats.WithinRel(got, want, 1e-12) {
		t.Errorf("huge + 1 changed the value: %v vs %v", got, want)
	}
}

func TestAddCommutativeAssociative(t *testing.T) {
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) ||
			math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		a, b, c := FromFloat64(x), FromFloat64(y), FromFloat64(z)
		if a.Add(b).Cmp(b.Add(a)) != 0 {
			return false
		}
		l := a.Add(b).Add(c).Float64()
		r := a.Add(b.Add(c)).Float64()
		return floats.WithinRel(l, r, 1e-9) || math.Abs(l-r) < 1e-300
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegAndSub(t *testing.T) {
	a := FromFloat64(7)
	if got := a.Neg().Float64(); got != -7 {
		t.Errorf("Neg(7) = %v", got)
	}
	if got := a.Sub(a).Float64(); got != 0 {
		t.Errorf("7-7 = %v", got)
	}
}

func TestStringFormatting(t *testing.T) {
	if got := Zero.String(); got != "0" {
		t.Errorf("Zero.String() = %q", got)
	}
	// The string form of e^-10000 must carry the right decimal exponent
	// (-4343 = -10000/ln(10)).
	s := FromLog(-10000).String()
	if want := "e-4343"; len(s) < len(want) || s[len(s)-len(want):] != want {
		t.Errorf("FromLog(-10000).String() = %q, want suffix %q", s, want)
	}
}

func TestRatio(t *testing.T) {
	a := FromFloat64(10)
	b := FromFloat64(4)
	if got := a.Ratio(b); got != 2.5 {
		t.Errorf("Ratio = %v", got)
	}
}
