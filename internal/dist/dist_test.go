package dist

import (
	"testing"
	"testing/quick"

	"xbar/internal/floats"
)

func TestTrafficString(t *testing.T) {
	if Smooth.String() != "smooth" || Regular.String() != "regular" || Peaky.String() != "peaky" {
		t.Error("Traffic String values wrong")
	}
	if Traffic(99).String() != "Traffic(99)" {
		t.Error("unknown Traffic String wrong")
	}
}

func TestClassification(t *testing.T) {
	if (BPP{Alpha: 1, Beta: -0.01, Mu: 1}).Traffic() != Smooth {
		t.Error("beta<0 should be Smooth")
	}
	if (BPP{Alpha: 1, Beta: 0, Mu: 1}).Traffic() != Regular {
		t.Error("beta=0 should be Regular")
	}
	if (BPP{Alpha: 1, Beta: 0.3, Mu: 1}).Traffic() != Peaky {
		t.Error("beta>0 should be Peaky")
	}
}

func TestMomentFormulas(t *testing.T) {
	// Paper Section 2 (with mu = 1): M = alpha/(1-beta),
	// V = alpha/(1-beta)^2, Z = 1/(1-beta).
	b := BPP{Alpha: 0.6, Beta: 0.25, Mu: 1}
	if got := b.Mean(); !floats.AlmostEqual(got, 0.8, 1e-12) {
		t.Errorf("Mean = %v, want 0.8", got)
	}
	if got := b.Variance(); !floats.AlmostEqual(got, 0.6/(0.75*0.75), 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if got := b.Peakedness(); !floats.AlmostEqual(got, 4.0/3, 1e-12) {
		t.Errorf("Peakedness = %v, want 4/3", got)
	}
}

func TestPeakednessClassifiesTraffic(t *testing.T) {
	smooth := BPP{Alpha: 1, Beta: -0.5, Mu: 1}
	if z := smooth.Peakedness(); z >= 1 {
		t.Errorf("smooth Z = %v, want < 1", z)
	}
	peaky := BPP{Alpha: 1, Beta: 0.5, Mu: 1}
	if z := peaky.Peakedness(); z <= 1 {
		t.Errorf("peaky Z = %v, want > 1", z)
	}
	if z := (BPP{Alpha: 1, Mu: 1}).Peakedness(); z != 1 {
		t.Errorf("Poisson Z = %v, want 1", z)
	}
}

func TestFitMeanPeakednessRoundTrip(t *testing.T) {
	f := func(mRaw, zRaw, muRaw uint16) bool {
		m := 0.01 + float64(mRaw%1000)/100
		z := 0.05 + float64(zRaw%300)/100
		mu := 0.1 + float64(muRaw%100)/10
		b, err := FitMeanPeakedness(m, z, mu)
		if err != nil {
			return false
		}
		return floats.AlmostEqual(b.Mean(), m, 1e-9) && floats.AlmostEqual(b.Peakedness(), z, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitMeanPeakednessRejectsBadArgs(t *testing.T) {
	for _, c := range [][3]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 1}} {
		if _, err := FitMeanPeakedness(c[0], c[1], c[2]); err == nil {
			t.Errorf("FitMeanPeakedness(%v) accepted invalid arguments", c)
		}
	}
}

func TestValidate(t *testing.T) {
	// Paper Figure 1 parameters: alpha~ = .0024, beta~ = -4e-6, so
	// alpha/beta = -600, an integer population of 600 >= 128.
	smooth := BPP{Alpha: 0.0024, Beta: -4e-6, Mu: 1}
	if err := smooth.Validate(128); err != nil {
		t.Errorf("paper's Figure 1 parameters rejected: %v", err)
	}
	if got := smooth.Population(); got != 600 {
		t.Errorf("Population = %v, want 600", got)
	}
	// Population smaller than the switch: lambda(k) would go negative.
	if err := (BPP{Alpha: 0.0024, Beta: -4e-5, Mu: 1}).Validate(128); err == nil {
		t.Error("population 60 < 128 accepted")
	}
	// Non-integer population.
	if err := (BPP{Alpha: 0.0024, Beta: -3.7e-6, Mu: 1}).Validate(128); err == nil {
		t.Error("non-integer population accepted")
	}
	// Pascal with beta/mu >= 1 diverges.
	if err := (BPP{Alpha: 1, Beta: 1.5, Mu: 1}).Validate(16); err == nil {
		t.Error("beta/mu >= 1 accepted")
	}
	if err := (BPP{Alpha: 1, Beta: 0.5, Mu: 1}).Validate(16); err != nil {
		t.Errorf("valid Pascal rejected: %v", err)
	}
	if err := (BPP{Alpha: 0, Beta: 0, Mu: 1}).Validate(16); err == nil {
		t.Error("alpha = 0 accepted")
	}
	if err := (BPP{Alpha: 1, Beta: 0, Mu: 0}).Validate(16); err == nil {
		t.Error("mu = 0 accepted")
	}
}

func TestPopulationPanicsForNonSmooth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Population() on Poisson source did not panic")
		}
	}()
	_ = BPP{Alpha: 1, Beta: 0, Mu: 1}.Population()
}

func TestRate(t *testing.T) {
	b := BPP{Alpha: 2, Beta: 0.5, Mu: 1}
	if got := b.Rate(0); got != 2 {
		t.Errorf("Rate(0) = %v", got)
	}
	if got := b.Rate(4); got != 4 {
		t.Errorf("Rate(4) = %v", got)
	}
}

func pmfSumAndMoments(pmf func(int) float64, n int) (sum, mean, variance float64) {
	for k := 0; k <= n; k++ {
		p := pmf(k)
		sum += p
		mean += float64(k) * p
	}
	for k := 0; k <= n; k++ {
		d := float64(k) - mean
		variance += d * d * pmf(k)
	}
	return sum, mean, variance
}

func TestPoissonPMF(t *testing.T) {
	m := 3.5
	sum, mean, v := pmfSumAndMoments(func(k int) float64 { return PoissonPMF(m, k) }, 200)
	if !floats.AlmostEqual(sum, 1, 1e-10) {
		t.Errorf("Poisson pmf sums to %v", sum)
	}
	if !floats.AlmostEqual(mean, m, 1e-9) || !floats.AlmostEqual(v, m, 1e-9) {
		t.Errorf("Poisson mean/var = %v/%v, want %v/%v", mean, v, m, m)
	}
	if PoissonPMF(m, -1) != 0 {
		t.Error("PoissonPMF(-1) != 0")
	}
	if PoissonPMF(0, 0) != 1 || PoissonPMF(0, 3) != 0 {
		t.Error("PoissonPMF with m=0 wrong")
	}
}

func TestPoissonPMFLargeK(t *testing.T) {
	// Stability check at large k: the naive m^k/k! form overflows.
	if p := PoissonPMF(500, 500); p <= 0 || p > 1 {
		t.Errorf("PoissonPMF(500, 500) = %v", p)
	}
}

func TestBinomialPMF(t *testing.T) {
	n, p := 20, 0.3
	sum, mean, v := pmfSumAndMoments(func(k int) float64 { return BinomialPMF(n, p, k) }, n)
	if !floats.AlmostEqual(sum, 1, 1e-10) {
		t.Errorf("Binomial pmf sums to %v", sum)
	}
	if !floats.AlmostEqual(mean, float64(n)*p, 1e-9) {
		t.Errorf("Binomial mean = %v, want %v", mean, float64(n)*p)
	}
	if !floats.AlmostEqual(v, float64(n)*p*(1-p), 1e-9) {
		t.Errorf("Binomial var = %v, want %v", v, float64(n)*p*(1-p))
	}
	if BinomialPMF(n, p, -1) != 0 || BinomialPMF(n, p, n+1) != 0 {
		t.Error("Binomial out-of-support not 0")
	}
	if BinomialPMF(5, 0, 0) != 1 || BinomialPMF(5, 1, 5) != 1 {
		t.Error("Binomial degenerate p wrong")
	}
}

func TestPascalPMF(t *testing.T) {
	r, p := 2.5, 0.4
	sum, mean, v := pmfSumAndMoments(func(k int) float64 { return PascalPMF(r, p, k) }, 500)
	if !floats.AlmostEqual(sum, 1, 1e-9) {
		t.Errorf("Pascal pmf sums to %v", sum)
	}
	wantMean := r * p / (1 - p)
	wantVar := r * p / ((1 - p) * (1 - p))
	if !floats.AlmostEqual(mean, wantMean, 1e-8) {
		t.Errorf("Pascal mean = %v, want %v", mean, wantMean)
	}
	if !floats.AlmostEqual(v, wantVar, 1e-7) {
		t.Errorf("Pascal var = %v, want %v", v, wantVar)
	}
	if PascalPMF(r, p, -1) != 0 {
		t.Error("Pascal negative k not 0")
	}
	if PascalPMF(r, 0, 0) != 1 {
		t.Error("Pascal p=0 k=0 should be 1")
	}
}

// TestInfiniteServerPMFMatchesMoments checks that for each traffic type
// the closed-form busy-server distribution reproduces the BPP moment
// formulas, tying the three classical distributions to the unified
// parameterization (paper Section 2).
func TestInfiniteServerPMFMatchesMoments(t *testing.T) {
	cases := []BPP{
		{Alpha: 0.8, Beta: 0, Mu: 1},        // Poisson
		{Alpha: 2, Beta: 0.4, Mu: 1},        // Pascal
		{Alpha: 3, Beta: -0.05, Mu: 1},      // Binomial, S = 60
		{Alpha: 1.5, Beta: 0.3, Mu: 2},      // Pascal with mu != 1
		{Alpha: 0.9, Beta: -0.009, Mu: 3},   // Binomial with mu != 1, S = 100
		{Alpha: 0.0024, Beta: -4e-6, Mu: 1}, // paper Figure 1 smooth source
	}
	for _, b := range cases {
		sum, mean, v := pmfSumAndMoments(b.InfiniteServerPMF, 3000)
		if !floats.AlmostEqual(sum, 1, 1e-8) {
			t.Errorf("%+v: pmf sums to %v", b, sum)
		}
		if !floats.AlmostEqual(mean, b.Mean(), 1e-6) {
			t.Errorf("%+v: pmf mean %v, want %v", b, mean, b.Mean())
		}
		if !floats.AlmostEqual(v, b.Variance(), 1e-5) {
			t.Errorf("%+v: pmf var %v, want %v", b, v, b.Variance())
		}
	}
}

// TestBPPUnifiesDistributions: as beta -> 0 both the Binomial and the
// Pascal busy-server distributions converge pointwise to the Poisson —
// the degeneracy the paper's introduction cites.
func TestBPPUnifiesDistributions(t *testing.T) {
	m := 1.7
	for k := 0; k <= 10; k++ {
		want := PoissonPMF(m, k)
		peaky := BPP{Alpha: m * (1 - 1e-6), Beta: 1e-6, Mu: 1}
		if got := peaky.InfiniteServerPMF(k); !floats.AlmostEqual(got, want, 1e-3) {
			t.Errorf("Pascal(beta->0) pmf(%d) = %v, want ~%v", k, got, want)
		}
		pop := 1e6
		smooth := BPP{Alpha: m, Beta: -m / pop, Mu: 1}
		if got := smooth.InfiniteServerPMF(k); !floats.AlmostEqual(got, want, 1e-3) {
			t.Errorf("Binomial(beta->0) pmf(%d) = %v, want ~%v", k, got, want)
		}
	}
}

// TestInfiniteServerPMFDetailedBalance verifies the pmf against the
// birth-death balance pi(k+1)/pi(k) = lambda(k)/((k+1) mu) that defines
// the process, independent of the closed forms.
func TestInfiniteServerPMFDetailedBalance(t *testing.T) {
	cases := []BPP{
		{Alpha: 0.8, Beta: 0, Mu: 1},
		{Alpha: 2, Beta: 0.4, Mu: 1.5},
		{Alpha: 3, Beta: -0.1, Mu: 2}, // S = 30
	}
	for _, b := range cases {
		for k := 0; k < 20; k++ {
			pk, pk1 := b.InfiniteServerPMF(k), b.InfiniteServerPMF(k+1)
			if pk == 0 {
				continue
			}
			got := pk1 / pk
			want := b.Rate(k) / (float64(k+1) * b.Mu)
			if !floats.AlmostEqual(got, want, 1e-8) {
				t.Errorf("%+v k=%d: pi ratio %v, want %v", b, k, got, want)
			}
		}
	}
}
