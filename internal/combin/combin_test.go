package combin

import (
	"math"
	"testing"
	"testing/quick"

	"xbar/internal/floats"
)

func TestFactorialSmall(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800}
	for n, w := range want {
		if got := Factorial(n); got != w {
			t.Errorf("Factorial(%d) = %v, want %v", n, got, w)
		}
	}
}

func TestFactorialLarge(t *testing.T) {
	// 25! = 15511210043330985984000000
	if got, want := Factorial(25), 1.5511210043330986e25; !floats.WithinRel(got, want, 1e-12) {
		t.Errorf("Factorial(25) = %v, want %v", got, want)
	}
	// 170! is the largest finite factorial in float64; 171! overflows.
	if got := Factorial(170); math.IsInf(got, 1) {
		t.Error("Factorial(170) overflowed, want finite")
	}
	if got := Factorial(171); !math.IsInf(got, 1) {
		t.Errorf("Factorial(171) = %v, want +Inf", got)
	}
}

func TestFactorialNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Factorial(-1) did not panic")
		}
	}()
	Factorial(-1)
}

func TestLogFactorialMatchesFactorial(t *testing.T) {
	for n := 0; n <= 170; n += 7 {
		got := LogFactorial(n)
		want := math.Log(Factorial(n))
		if !floats.WithinRel(got, want, 1e-12) {
			t.Errorf("LogFactorial(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestLogFactorialLargeArgument(t *testing.T) {
	// ln(1000!) = 5912.128178... (Stirling-checked reference value).
	if got, want := LogFactorial(1000), 5912.128178488163; !floats.WithinRel(got, want, 1e-10) {
		t.Errorf("LogFactorial(1000) = %v, want %v", got, want)
	}
}

func TestPerm(t *testing.T) {
	cases := []struct {
		n, a int
		want float64
	}{
		{0, 0, 1},
		{5, 0, 1},
		{5, 1, 5},
		{5, 2, 20},
		{5, 5, 120},
		{5, 6, 0},
		{128, 2, 128 * 127},
	}
	for _, c := range cases {
		if got := Perm(c.n, c.a); got != c.want {
			t.Errorf("Perm(%d, %d) = %v, want %v", c.n, c.a, got, c.want)
		}
	}
}

func TestPermMatchesFactorialRatio(t *testing.T) {
	for n := 0; n <= 20; n++ {
		for a := 0; a <= n; a++ {
			got := Perm(n, a)
			want := Factorial(n) / Factorial(n-a)
			if !floats.WithinRel(got, want, 1e-12) {
				t.Errorf("Perm(%d, %d) = %v, want n!/(n-a)! = %v", n, a, got, want)
			}
		}
	}
}

func TestLogPermMatchesPerm(t *testing.T) {
	for n := 1; n <= 200; n += 13 {
		for a := 0; a <= 4 && a <= n; a++ {
			got := LogPerm(n, a)
			want := math.Log(Perm(n, a))
			if !floats.WithinRel(got, want, 1e-12) {
				t.Errorf("LogPerm(%d, %d) = %v, want %v", n, a, got, want)
			}
		}
	}
}

func TestLogPermPanicsWhenZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LogPerm(2, 3) did not panic")
		}
	}()
	LogPerm(2, 3)
}

func TestBinom(t *testing.T) {
	cases := []struct {
		n, a int
		want float64
	}{
		{0, 0, 1},
		{4, 2, 6},
		{8, 2, 28},
		{16, 2, 120},
		{32, 2, 496},
		{64, 2, 2016},
		{128, 1, 128},
		{10, 11, 0},
		{52, 5, 2598960},
	}
	for _, c := range cases {
		if got := Binom(c.n, c.a); got != c.want {
			t.Errorf("Binom(%d, %d) = %v, want %v", c.n, c.a, got, c.want)
		}
	}
}

func TestBinomSymmetry(t *testing.T) {
	f := func(n, a uint8) bool {
		nn := int(n % 60)
		aa := int(a % 60)
		if aa > nn {
			return true
		}
		return Binom(nn, aa) == Binom(nn, nn-aa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomPascalRule(t *testing.T) {
	f := func(n, a uint8) bool {
		nn := 1 + int(n%50)
		aa := 1 + int(a%50)
		if aa > nn {
			return true
		}
		return floats.WithinRel(Binom(nn, aa), Binom(nn-1, aa-1)+Binom(nn-1, aa), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomInt(t *testing.T) {
	if got, want := BinomInt(60, 30), int64(118264581564861424); got != want {
		t.Errorf("BinomInt(60, 30) = %d, want %d", got, want)
	}
	if got := BinomInt(5, 9); got != 0 {
		t.Errorf("BinomInt(5, 9) = %d, want 0", got)
	}
}

func TestBinomIntMatchesBinom(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for a := 0; a <= n; a++ {
			if got, want := float64(BinomInt(n, a)), Binom(n, a); !floats.WithinRel(got, want, 1e-12) {
				t.Errorf("BinomInt(%d, %d) = %v, want %v", n, a, got, want)
			}
		}
	}
}

func TestGeneralizedBinomIntegerCase(t *testing.T) {
	// For integer x, C(x+k-1, k) is the ordinary binomial coefficient.
	for x := 1; x <= 10; x++ {
		for k := 0; k <= 10; k++ {
			got := GeneralizedBinom(float64(x), k)
			want := Binom(x+k-1, k)
			if !floats.WithinRel(got, want, 1e-12) {
				t.Errorf("GeneralizedBinom(%d, %d) = %v, want %v", x, k, got, want)
			}
		}
	}
}

func TestGeneralizedBinomZeroK(t *testing.T) {
	if got := GeneralizedBinom(3.7, 0); got != 1 {
		t.Errorf("GeneralizedBinom(3.7, 0) = %v, want 1", got)
	}
}

func TestGeneralizedBinomRecurrence(t *testing.T) {
	// C(x+k-1, k) = C(x+k-2, k-1) * (x+k-1)/k
	f := func(xRaw uint16, k uint8) bool {
		x := float64(xRaw%1000)/100 + 0.01
		kk := 1 + int(k%20)
		got := GeneralizedBinom(x, kk)
		want := GeneralizedBinom(x, kk-1) * (x + float64(kk-1)) / float64(kk)
		return floats.WithinRel(got, want, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
