package revenue

import (
	"math"
	"testing"

	"xbar/internal/core"
	"xbar/internal/floats"
)

func TestWeightsLengthChecked(t *testing.T) {
	sw := core.Switch{N1: 2, N2: 2, Classes: []core.Class{{A: 1, Alpha: 0.1, Mu: 1}}}
	if _, err := New(sw, []float64{1, 2}); err == nil {
		t.Error("mismatched weights accepted")
	}
}

func TestWEqualsWeightedThroughput(t *testing.T) {
	// With w_r = mu_r, W is exactly the total throughput
	// sum_r mu_r E_r (paper: w_r = gamma_r mu_r with gamma = 1).
	sw := core.Switch{N1: 4, N2: 4, Classes: []core.Class{
		{A: 1, Alpha: 0.2, Mu: 1.5},
		{A: 2, Alpha: 0.05, Beta: 0.01, Mu: 0.7},
	}}
	a, err := New(sw, []float64{1.5, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.5*res.Concurrency[0] + 0.7*res.Concurrency[1]
	if got := a.W(); !floats.Close(got, want, 1e-12) {
		t.Errorf("W = %v, want %v", got, want)
	}
}

// TestClosedFormGradientAllPoisson verifies the Section 4 closed form
// against a numerical central difference when every class is Poisson —
// the case the paper derives it for.
func TestClosedFormGradientAllPoisson(t *testing.T) {
	sw := core.Switch{N1: 6, N2: 5, Classes: []core.Class{
		{A: 1, Alpha: 0.15, Mu: 1},
		{A: 2, Alpha: 0.02, Mu: 0.9},
	}}
	a, err := New(sw, []float64{1.0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Classes {
		closed := a.GradientRhoClosed(r)
		numeric := a.GradientRho(r, 1e-6)
		if !floats.Close(closed, numeric, 1e-4) {
			t.Errorf("class %d: closed %v numeric %v", r, closed, numeric)
		}
	}
}

// TestPaperTable2Gradients reproduces the N=1 and N=2 entries of the
// dW/d rho_1 column: 0.99 and 3.97 (printed to 2 decimals).
func TestPaperTable2Gradients(t *testing.T) {
	build := func(n int) core.Switch {
		return core.NewSwitch(n, n,
			core.AggregateClass{Name: "poisson", A: 1, AlphaTilde: 0.0012, Mu: 1},
			core.AggregateClass{Name: "bursty", A: 1, AlphaTilde: 0.0012, BetaTilde: 0.0012, Mu: 1},
		)
	}
	weights := []float64{1.0, 0.0001}

	a1, err := New(build(1), weights)
	if err != nil {
		t.Fatal(err)
	}
	// The paper prints 0.99 and 3.97; our closed form gives 0.9964 and
	// 3.981 (within 1%). The residual is consistent with the paper
	// computing this column by a coarse forward difference on its own
	// quirky Table 2 model (see EXPERIMENTS.md).
	if got := a1.GradientRhoClosed(0); math.Abs(got-0.99) > 0.01*0.99 {
		t.Errorf("N=1: dW/drho1 = %v, paper prints 0.99", got)
	}
	a2, err := New(build(2), weights)
	if err != nil {
		t.Fatal(err)
	}
	if got := a2.GradientRhoClosed(0); math.Abs(got-3.97) > 0.01*3.97 {
		t.Errorf("N=2: dW/drho1 = %v, paper prints 3.97", got)
	}
	// The numerical gradient agrees with the closed form to the
	// accuracy the mixed-traffic approximation allows here.
	if closed, numeric := a2.GradientRhoClosed(0), a2.GradientRho(0, 1e-6); !floats.Close(closed, numeric, 1e-3) {
		t.Errorf("N=2: closed %v vs numeric %v", closed, numeric)
	}
}

// TestBurstyGradientNegativeAtScale reproduces the Table 2 sign
// pattern: dW/d(beta_2/mu_2) is (weakly) positive at tiny N and turns
// negative as the switch grows — increased peakedness costs revenue.
func TestBurstyGradientNegativeAtScale(t *testing.T) {
	weights := []float64{1.0, 0.0001}
	grad := func(n int) float64 {
		sw := core.NewSwitch(n, n,
			core.AggregateClass{Name: "poisson", A: 1, AlphaTilde: 0.0012, Mu: 1},
			core.AggregateClass{Name: "bursty", A: 1, AlphaTilde: 0.0012, BetaTilde: 0.0012, Mu: 1},
		)
		a, err := New(sw, weights)
		if err != nil {
			t.Fatal(err)
		}
		return a.GradientBetaMu(1, 1e-4)
	}
	// At N=2 the derivative is tiny; the paper prints +2.4e-7 where the
	// derived model gives ~-2.6e-6 (its sign there inherits the paper's
	// Table 2 beta quirk — see EXPERIMENTS.md). Both agree it is
	// negligible against the N>=8 values.
	if g := grad(2); math.Abs(g) > 1e-5 {
		t.Errorf("N=2: gradient %v, want negligible magnitude", g)
	}
	for _, n := range []int{8, 16, 32} {
		if g := grad(n); g >= 0 {
			t.Errorf("N=%d: gradient %v, want negative", n, g)
		}
	}
	// Magnitude grows with N (Table 2 column shape).
	if !(math.Abs(grad(32)) > math.Abs(grad(16)) && math.Abs(grad(16)) > math.Abs(grad(8))) {
		t.Error("bursty gradient magnitude does not grow with N")
	}
}

// TestForwardVsCentralDifference: both approximate the same derivative.
func TestForwardVsCentralDifference(t *testing.T) {
	sw := core.NewSwitch(8, 8,
		core.AggregateClass{A: 1, AlphaTilde: 0.0012, Mu: 1},
		core.AggregateClass{A: 1, AlphaTilde: 0.0012, BetaTilde: 0.0012, Mu: 1},
	)
	a, err := New(sw, []float64{1, 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	fwd := a.GradientBetaMuForward(1, 1e-5)
	ctr := a.GradientBetaMu(1, 1e-5)
	if !floats.Close(fwd, ctr, 1e-2) {
		t.Errorf("forward %v central %v", fwd, ctr)
	}
}

// TestShadowCostInterpretation: with a lone expensive class the shadow
// cost of its own admission approaches its own revenue contribution,
// and Profitable flips accordingly.
func TestShadowCostInterpretation(t *testing.T) {
	sw := core.Switch{N1: 3, N2: 3, Classes: []core.Class{
		{Name: "gold", A: 1, Alpha: 0.3, Mu: 1},
		{Name: "lead", A: 1, Alpha: 0.3, Mu: 1},
	}}
	a, err := New(sw, []float64{10, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Profitable(0) {
		t.Error("high-revenue class should be profitable to grow")
	}
	// The cheap class displaces expensive traffic worth more than its
	// own w: growing it must be unprofitable.
	if a.Profitable(1) {
		t.Errorf("low-revenue class profitable: w=%v shadow=%v", 0.001, a.ShadowCost(1))
	}
	// And the gradients carry the same signs.
	if g := a.GradientRho(0, 1e-6); g <= 0 {
		t.Errorf("gold gradient %v, want > 0", g)
	}
	if g := a.GradientRho(1, 1e-6); g >= 0 {
		t.Errorf("lead gradient %v, want < 0", g)
	}
}

// TestWAtBoundary: W vanishes with the switch.
func TestWAtBoundary(t *testing.T) {
	sw := core.Switch{N1: 2, N2: 2, Classes: []core.Class{{A: 2, Alpha: 0.1, Mu: 1}}}
	a, err := New(sw, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.WAt(0, 0); got != 0 {
		t.Errorf("W(0) = %v, want 0", got)
	}
	// Shadow cost of the a=2 class compares against W(0, 0) = 0.
	if got, want := a.ShadowCost(0), a.W(); !floats.Close(got, want, 1e-12) {
		t.Errorf("ShadowCost = %v, want W = %v", got, want)
	}
}

// TestAccessors covers the Switch and Result getters.
func TestAccessors(t *testing.T) {
	sw := core.Switch{N1: 3, N2: 3, Classes: []core.Class{{A: 1, Alpha: 0.1, Mu: 1}}}
	a, err := New(sw, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Switch(); got.N1 != 3 || got.N2 != 3 {
		t.Errorf("Switch() = %+v", got)
	}
	if res := a.Result(); res == nil || len(res.Blocking) != 1 {
		t.Error("Result() malformed")
	}
}

// TestNewWithSweepSharesLattice pins the server-cache path: an
// Analysis built on an existing sweep solver reproduces New exactly
// (same W, shadow costs, gradients) and reads the very lattice it was
// handed rather than filling its own.
func TestNewWithSweepSharesLattice(t *testing.T) {
	sw := core.Switch{N1: 8, N2: 8, Classes: []core.Class{
		{Name: "p", A: 1, Alpha: 0.1, Mu: 1},
		{Name: "peaky", A: 2, Alpha: 0.02, Beta: 0.004, Mu: 0.5},
	}}
	weights := []float64{1, 0.25}
	sweep, err := core.NewSweepSolver(sw)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewWithSweep(sweep, weights)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(sw, weights)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shared.W(), fresh.W(); !floats.Close(got, want, 1e-12) {
		t.Errorf("W = %v, want %v", got, want)
	}
	for r := range sw.Classes {
		if got, want := shared.ShadowCost(r), fresh.ShadowCost(r); !floats.Close(got, want, 1e-12) {
			t.Errorf("ShadowCost(%d) = %v, want %v", r, got, want)
		}
		if got, want := shared.GradientRhoClosed(r), fresh.GradientRhoClosed(r); !floats.Close(got, want, 1e-12) {
			t.Errorf("GradientRhoClosed(%d) = %v, want %v", r, got, want)
		}
	}
	if got, want := shared.GradientBetaMu(1, 1e-4), fresh.GradientBetaMu(1, 1e-4); !floats.Close(got, want, 1e-9) {
		t.Errorf("GradientBetaMu = %v, want %v", got, want)
	}
	if shared.Result() != sweep.Result() {
		t.Error("Analysis did not read the sweep solver it was handed")
	}

	if _, err := NewWithSweep(sweep, []float64{1}); err == nil {
		t.Error("mismatched weights accepted")
	}
}

// TestGradientOutsideValidRegion pins that a perturbed re-solve
// leaving the valid parameter region yields NaN, not a panic: a
// Bernoulli class's alpha and beta cannot move off its integer
// population, and a Pascal class at beta/mu = 0.95 cannot take a 10%
// step up.
func TestGradientOutsideValidRegion(t *testing.T) {
	sw := core.Switch{N1: 8, N2: 8, Classes: []core.Class{
		{Name: "p", A: 1, Alpha: 0.01, Mu: 1},
		{Name: "smooth", A: 1, Alpha: 0.02, Beta: -0.001, Mu: 1},
		{Name: "peaky", A: 1, Alpha: 0.01, Beta: 0.95, Mu: 1},
	}}
	a, err := New(sw, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    float64
		nan  bool
	}{
		{"bernoulli beta/mu", a.GradientBetaMu(1, 1e-4), true},
		{"bernoulli forward beta/mu", a.GradientBetaMuForward(1, 1e-4), true},
		{"bernoulli rho", a.GradientRho(1, 1e-6), true},
		{"pascal beta/mu step past 1", a.GradientBetaMu(2, 0.1), true},
		{"pascal beta/mu small step", a.GradientBetaMu(2, 1e-4), false},
		{"poisson rho", a.GradientRho(0, 1e-6), false},
	} {
		if got := math.IsNaN(tc.g); got != tc.nan {
			t.Errorf("%s: gradient %v, want NaN %v", tc.name, tc.g, tc.nan)
		}
	}
}
