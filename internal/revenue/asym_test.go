package revenue

import (
	"math"
	"testing"

	"xbar/internal/core"
)

// asymTestSwitch is a two-class mix (Poisson + bursty) at a size where
// the exact lattice is still cheap, so every asymptotic measure can be
// checked against its exact counterpart.
func asymTestSwitch(n int) core.Switch {
	return core.NewSwitch(n, n,
		core.AggregateClass{Name: "thin", A: 1, AlphaTilde: 0.56, Mu: 1},
		core.AggregateClass{Name: "wide", A: 2, AlphaTilde: 0.28, BetaTilde: 0.14, Mu: 0.5},
	)
}

// relErr is |got - want| / |want|, or |got| against a zero want. A NaN
// operand or an infinite want reads +Inf, so every e > tol check
// rejects it: GradientBetaMu reports an invalid perturbation as NaN.
func relErr(got, want float64) float64 {
	if math.IsNaN(got) || math.IsNaN(want) || math.IsInf(want, 0) {
		return math.Inf(1)
	}
	if want == 0 { //lint:allow floatcmp guard before dividing
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestAsymAnalysisTracksExact compares every AsymAnalysis measure with
// the lattice-backed Analysis at n = 192. The shadow costs and
// gradients are differences of close asymptotic values, so they get a
// looser budget than W itself; the point of the test is that the O(R)
// tier reproduces the economics (signs, profitability, magnitudes),
// not bit-level agreement.
func TestAsymAnalysisTracksExact(t *testing.T) {
	sw := asymTestSwitch(192)
	weights := []float64{1, 2.5}
	exact, err := New(sw, weights)
	if err != nil {
		t.Fatal(err)
	}
	asym, err := NewAsymptotic(sw, weights)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(asym.W(), exact.W()); e > 5e-3 {
		t.Errorf("W: asym %v exact %v (rel err %.2e)", asym.W(), exact.W(), e)
	}
	for r := range sw.Classes {
		if b := asym.Bound(r); !(b > 0) {
			t.Errorf("class %d: bound %v not positive", r, b)
		}
		shadow, err := asym.ShadowCost(r)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(shadow, exact.ShadowCost(r)); e > 0.05 {
			t.Errorf("class %d shadow: asym %v exact %v (rel err %.2e)", r, shadow, exact.ShadowCost(r), e)
		}
		prof, err := asym.Profitable(r)
		if err != nil {
			t.Fatal(err)
		}
		if prof != exact.Profitable(r) {
			t.Errorf("class %d: profitability %v, exact says %v", r, prof, exact.Profitable(r))
		}
		// dW/drho = lead * NB_r * (w_r - shadow): the last factor is a
		// difference of close values, where the tier's error bounds are
		// indicative rather than certified (see the AsymAnalysis doc).
		// The direction of the economic signal must survive, and so
		// must the magnitude to within the difference amplification.
		grad, err := asym.GradientRhoClosed(r)
		if err != nil {
			t.Fatal(err)
		}
		ge := exact.GradientRhoClosed(r)
		if math.Signbit(grad) != math.Signbit(ge) {
			t.Errorf("class %d dW/drho: asym %v exact %v disagree in sign", r, grad, ge)
		}
		if e := relErr(grad, ge); e > 3 {
			t.Errorf("class %d dW/drho: asym %v exact %v (rel err %.2e)", r, grad, ge, e)
		}
	}
	// The bursty class's beta/mu gradient, by the same central
	// difference on both tiers.
	gb, err := asym.GradientBetaMu(1, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(gb, exact.GradientBetaMu(1, 1e-4)); e > 0.05 {
		t.Errorf("dW/d(beta/mu): asym %v exact %v (rel err %.2e)", gb, exact.GradientBetaMu(1, 1e-4), e)
	}
}

// TestAsymAnalysisLarge exercises the tier at a size no lattice could
// back, pinning basic sanity: finite measures, cached reduced solves,
// and a wide class whose bandwidth exceeding min(N) zeroes the
// gradient.
func TestAsymAnalysisLarge(t *testing.T) {
	sw := asymTestSwitch(4096)
	an, err := NewAsymptotic(sw, []float64{1, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if w := an.W(); !(w > 0) || math.IsInf(w, 0) {
		t.Fatalf("W = %v", w)
	}
	for r := range sw.Classes {
		shadow, err := an.ShadowCost(r)
		if err != nil {
			t.Fatal(err)
		}
		if !(shadow >= 0) || math.IsInf(shadow, 0) {
			t.Errorf("class %d shadow %v", r, shadow)
		}
	}
	// Both classes' reduced solves hit distinct bandwidths 1 and 2;
	// a second query must come from the cache (same value).
	s0, _ := an.ShadowCost(0)
	s0again, _ := an.ShadowCost(0)
	if math.Float64bits(s0) != math.Float64bits(s0again) {
		t.Errorf("cached shadow cost changed: %v vs %v", s0, s0again)
	}
}
