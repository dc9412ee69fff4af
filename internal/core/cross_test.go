package core

import (
	"math"
	"math/rand"
	"testing"

	"xbar/internal/floats"
)

// erlangSwitch is the hand-checkable 1x1 case: states {0, 1},
// G = 1 + rho, non-blocking 1/(1+rho), E = rho/(1+rho).
func TestOneByOnePoisson(t *testing.T) {
	rho := 0.37
	sw := Switch{N1: 1, N2: 1, Classes: []Class{{A: 1, Alpha: rho, Mu: 1}}}
	for _, solve := range []struct {
		name string
		fn   func(Switch) (*Result, error)
	}{
		{"direct", SolveDirect},
		{"convolution", SolveConvolution},
		{"algorithm1", Solve},
		{"unscaled", SolveUnscaled},
	} {
		res, err := solve.fn(sw)
		if err != nil {
			t.Fatalf("%s: %v", solve.name, err)
		}
		if got, want := res.NonBlocking[0], 1/(1+rho); !floats.Close(got, want, 1e-12) {
			t.Errorf("%s: NonBlocking = %v, want %v", solve.name, got, want)
		}
		if got, want := res.Concurrency[0], rho/(1+rho); !floats.Close(got, want, 1e-12) {
			t.Errorf("%s: Concurrency = %v, want %v", solve.name, got, want)
		}
		if got, want := res.LogG, math.Log(1+rho); !floats.Close(got, want, 1e-12) {
			t.Errorf("%s: LogG = %v, want %v", solve.name, got, want)
		}
	}
}

// TestPaperTable2SmallN reproduces the N=1 and N=2 rows of Table 2
// (first parameter set) exactly: the only published closed numbers in
// the paper that pin down every convention at once (tilde conversion,
// blocking-vs-non-blocking, revenue weighting).
func TestPaperTable2SmallN(t *testing.T) {
	build := func(n int) Switch {
		return NewSwitch(n, n,
			AggregateClass{Name: "poisson", A: 1, AlphaTilde: 0.0012, Mu: 1},
			AggregateClass{Name: "bursty", A: 1, AlphaTilde: 0.0012, BetaTilde: 0.0012, Mu: 1},
		)
	}
	weights := []float64{1.0, 0.0001}

	for _, solve := range []struct {
		name string
		fn   func(Switch) (*Result, error)
	}{
		{"direct", SolveDirect},
		{"convolution", SolveConvolution},
		{"algorithm1", Solve},
	} {
		res1, err := solve.fn(build(1))
		if err != nil {
			t.Fatalf("%s N=1: %v", solve.name, err)
		}
		if got, want := res1.Blocking[0], 0.00239425; !floats.Close(got, want, 1e-5) {
			t.Errorf("%s N=1: blocking = %.8f, want %v", solve.name, got, want)
		}
		if got, want := res1.Revenue(weights), 0.00119725; !floats.Close(got, want, 1e-5) {
			t.Errorf("%s N=1: W = %.8f, want %v", solve.name, got, want)
		}

		res2, err := solve.fn(build(2))
		if err != nil {
			t.Fatalf("%s N=2: %v", solve.name, err)
		}
		// Beyond N=1 the paper's printed Table 2 values deviate from
		// the derived model by a slowly growing margin (~0.02% here;
		// see EXPERIMENTS.md "Table 2 deviations"): the paper's N=2
		// entry equals the model with the bursty slope dropped, which
		// no stated convention produces. We pin our exact closed-form
		// value (hand-derived: 1 - G(1,1)/G(2,2) with
		// G(1,1) = 1.0012, G(2,2) = 1.0048036) and require closeness
		// to the paper's number.
		if got, want := res2.Blocking[0], 0.0036036/1.0048036; !floats.Close(got, want, 1e-9) {
			t.Errorf("%s N=2: blocking = %.10f, want exact %v", solve.name, got, want)
		}
		if got, paper := res2.Blocking[0], 0.00358566; !floats.Close(got, paper, 5e-3) {
			t.Errorf("%s N=2: blocking = %.8f, too far from paper %v", solve.name, got, paper)
		}
		if got, paper := res2.Revenue(weights), 0.00239163; !floats.Close(got, paper, 5e-3) {
			t.Errorf("%s N=2: W = %.8f, too far from paper %v", solve.name, got, paper)
		}
	}
}

// randomSwitch draws a small random model mixing Poisson, smooth and
// peaky classes with multi-rate bandwidths.
func randomSwitch(rng *rand.Rand) Switch {
	n1 := 1 + rng.Intn(7)
	n2 := 1 + rng.Intn(7)
	nClasses := 1 + rng.Intn(3)
	maxN := n1
	if n2 > maxN {
		maxN = n2
	}
	var classes []Class
	for i := 0; i < nClasses; i++ {
		a := 1 + rng.Intn(3)
		mu := 0.5 + rng.Float64()*2
		alpha := (0.01 + rng.Float64()*0.5) * mu
		var beta float64
		switch rng.Intn(3) {
		case 0: // Poisson
		case 1: // peaky
			beta = rng.Float64() * 0.8 * mu
		case 2: // smooth, integer population >= maxN
			pop := float64(maxN + 1 + rng.Intn(100))
			beta = -alpha / pop
			alpha = pop * (-beta) // keep exact integer ratio
		}
		classes = append(classes, Class{A: a, Alpha: alpha, Beta: beta, Mu: mu})
	}
	return Switch{N1: n1, N2: n2, Classes: classes}
}

// TestCrossValidation drives randomized models through the independent
// evaluators and requires agreement on every measure — the core
// correctness property of the reproduction.
func TestCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		sw := randomSwitch(rng)
		direct, err := SolveDirect(sw)
		if err != nil {
			t.Fatalf("trial %d: direct: %v (switch %+v)", trial, err, sw)
		}
		conv, err := SolveConvolution(sw)
		if err != nil {
			t.Fatalf("trial %d: convolution: %v", trial, err)
		}
		alg1, err := Solve(sw)
		if err != nil {
			t.Fatalf("trial %d: algorithm1: %v", trial, err)
		}
		for _, other := range []*Result{conv, alg1} {
			if !floats.Close(other.LogG, direct.LogG, 1e-9) {
				t.Errorf("trial %d: %s LogG = %v, direct = %v (switch %+v)",
					trial, other.Method, other.LogG, direct.LogG, sw)
			}
			for r := range sw.Classes {
				if !floats.Close(other.NonBlocking[r], direct.NonBlocking[r], 1e-9) {
					t.Errorf("trial %d: %s NonBlocking[%d] = %v, direct = %v (switch %+v)",
						trial, other.Method, r, other.NonBlocking[r], direct.NonBlocking[r], sw)
				}
				if !floats.Close(other.Concurrency[r], direct.Concurrency[r], 1e-9) {
					t.Errorf("trial %d: %s Concurrency[%d] = %v, direct = %v (switch %+v)",
						trial, other.Method, r, other.Concurrency[r], direct.Concurrency[r], sw)
				}
			}
		}
		if t.Failed() {
			return
		}
	}
}

// TestOccupancySumsToOne checks the convolution evaluator's occupancy
// distribution is a distribution and consistent with utilization.
func TestOccupancySumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		sw := randomSwitch(rng)
		res, err := SolveConvolution(sw)
		if err != nil {
			t.Fatal(err)
		}
		sum, mean := 0.0, 0.0
		for s, p := range res.Occupancy {
			if p < -1e-15 {
				t.Fatalf("negative occupancy probability %v", p)
			}
			sum += p
			mean += float64(s) * p
		}
		if !floats.Close(sum, 1, 1e-10) {
			t.Errorf("occupancy sums to %v", sum)
		}
		busy := 0.0
		for r, c := range sw.Classes {
			busy += float64(c.A) * res.Concurrency[r]
		}
		if !floats.Close(mean, busy, 1e-9) {
			t.Errorf("occupancy mean %v != sum a_r E_r %v", mean, busy)
		}
	}
}

// TestNonSquareSwitch checks a rectangular crossbar where
// min(N1,N2) != max and the two lattice directions differ.
func TestNonSquareSwitch(t *testing.T) {
	sw := Switch{N1: 3, N2: 6, Classes: []Class{
		{A: 1, Alpha: 0.2, Mu: 1},
		{A: 2, Alpha: 0.05, Beta: 0.02, Mu: 0.7},
	}}
	direct, err := SolveDirect(sw)
	if err != nil {
		t.Fatal(err)
	}
	alg1, err := Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Classes {
		if !floats.Close(alg1.NonBlocking[r], direct.NonBlocking[r], 1e-10) {
			t.Errorf("NonBlocking[%d]: alg1 %v direct %v", r, alg1.NonBlocking[r], direct.NonBlocking[r])
		}
		if !floats.Close(alg1.Concurrency[r], direct.Concurrency[r], 1e-10) {
			t.Errorf("Concurrency[%d]: alg1 %v direct %v", r, alg1.Concurrency[r], direct.Concurrency[r])
		}
	}
}

// TestClassWiderThanSwitch: a class whose bandwidth exceeds the switch
// carries nothing and blocks always.
func TestClassWiderThanSwitch(t *testing.T) {
	sw := Switch{N1: 2, N2: 2, Classes: []Class{
		{A: 1, Alpha: 0.3, Mu: 1},
		{A: 3, Alpha: 0.1, Mu: 1},
	}}
	for _, fn := range []func(Switch) (*Result, error){SolveDirect, SolveConvolution, Solve} {
		res, err := fn(sw)
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocking[1] != 1 || res.Concurrency[1] != 0 {
			t.Errorf("%s: wide class B=%v E=%v, want 1 and 0", res.Method, res.Blocking[1], res.Concurrency[1])
		}
	}
}

// TestUnscaledMatchesScaledSmall verifies the raw-float64 Algorithm 1
// agrees with the scaled version while it still fits in range.
func TestUnscaledMatchesScaledSmall(t *testing.T) {
	sw := NewSwitch(16, 16,
		AggregateClass{A: 1, AlphaTilde: 0.0024, Mu: 1},
		AggregateClass{A: 1, AlphaTilde: 0.001, BetaTilde: 0.002, Mu: 1},
	)
	u, err := SolveUnscaled(sw)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Classes {
		if !floats.Close(u.NonBlocking[r], s.NonBlocking[r], 1e-9) {
			t.Errorf("NonBlocking[%d]: unscaled %v scaled %v", r, u.NonBlocking[r], s.NonBlocking[r])
		}
	}
}

// TestUnscaledUnderflowsLarge demonstrates the Section 6 motivation:
// raw float64 loses Q(N) for N >~ 85 while the scaled solver keeps
// going.
func TestUnscaledUnderflowsLarge(t *testing.T) {
	sw := NewSwitch(128, 128, AggregateClass{A: 1, AlphaTilde: 0.0024, Mu: 1})
	if _, err := SolveUnscaled(sw); err == nil {
		t.Fatal("unscaled Algorithm 1 at N=128 unexpectedly survived; expected underflow")
	}
	res, err := Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocking[0] <= 0 || res.Blocking[0] >= 1 {
		t.Errorf("scaled solver blocking = %v, want in (0,1)", res.Blocking[0])
	}
}

// TestResultAtMatchesFreshSolve: sub-switch measures read from a big
// solver's lattice equal a fresh solve of the smaller switch.
func TestResultAtMatchesFreshSolve(t *testing.T) {
	sw := Switch{N1: 10, N2: 8, Classes: []Class{
		{A: 1, Alpha: 0.1, Mu: 1},
		{A: 2, Alpha: 0.03, Beta: 0.01, Mu: 1},
	}}
	solver, err := NewSolver(sw)
	if err != nil {
		t.Fatal(err)
	}
	sub := solver.ResultAt(5, 7)
	fresh, err := Solve(Switch{N1: 5, N2: 7, Classes: sw.Classes})
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Classes {
		if !floats.Close(sub.NonBlocking[r], fresh.NonBlocking[r], 1e-12) {
			t.Errorf("NonBlocking[%d]: lattice %v fresh %v", r, sub.NonBlocking[r], fresh.NonBlocking[r])
		}
		if !floats.Close(sub.Concurrency[r], fresh.Concurrency[r], 1e-12) {
			t.Errorf("Concurrency[%d]: lattice %v fresh %v", r, sub.Concurrency[r], fresh.Concurrency[r])
		}
	}
}

// TestStateDependentServiceEquivalence checks the Section 2 duality:
// Poisson arrivals at unit rate with state-dependent service
// mu(k) = k mu / (v + delta k) yield the same steady state as BPP
// arrivals lambda(k) = (v + delta) + delta*k ... — precisely, the
// paper states equality when alpha = v + delta and beta = delta with
// the service-rate form mu_r(k) = k mu_r/(v_r + delta_r k).
func TestStateDependentServiceEquivalence(t *testing.T) {
	const (
		v     = 0.4
		delta = 0.2
		mu    = 1.3
	)
	sw := Switch{N1: 5, N2: 4, Classes: []Class{{A: 1, Alpha: 1, Mu: 1}}}

	// Model A: unit-rate Poisson arrivals, state-dependent service.
	birthA := []RateFunc{func(k int) float64 { return 1 }}
	deathA := []RateFunc{func(k int) float64 {
		return float64(k) * mu / (v + delta*float64(k))
	}}
	resA, err := SolveDirectRates(sw, birthA, deathA)
	if err != nil {
		t.Fatal(err)
	}

	// Model B: BPP arrivals alpha = v + delta, beta = delta, constant
	// service mu.
	birthB := []RateFunc{func(k int) float64 { return (v + delta) + delta*float64(k) }}
	deathB := []RateFunc{func(k int) float64 { return float64(k) * mu }}
	resB, err := SolveDirectRates(sw, birthB, deathB)
	if err != nil {
		t.Fatal(err)
	}

	if !floats.Close(resA.NonBlocking[0], resB.NonBlocking[0], 1e-10) {
		t.Errorf("NonBlocking: state-dep service %v, BPP %v", resA.NonBlocking[0], resB.NonBlocking[0])
	}
	if !floats.Close(resA.Concurrency[0], resB.Concurrency[0], 1e-10) {
		t.Errorf("Concurrency: state-dep service %v, BPP %v", resA.Concurrency[0], resB.Concurrency[0])
	}
	if !floats.Close(resA.LogG-resB.LogG, resA.LogG-resB.LogG, 1) {
		t.Error("unreachable")
	}
}

// TestMonotonicity: blocking grows with offered load and shrinks with
// switch size.
func TestMonotonicity(t *testing.T) {
	base := func(rho float64, n int) float64 {
		sw := Switch{N1: n, N2: n, Classes: []Class{{A: 1, Alpha: rho, Mu: 1}}}
		res, err := Solve(sw)
		if err != nil {
			t.Fatal(err)
		}
		return res.Blocking[0]
	}
	prev := -1.0
	for _, rho := range []float64{0.001, 0.01, 0.1, 0.5} {
		b := base(rho, 4)
		if b <= prev {
			t.Errorf("blocking not increasing in load: rho=%v b=%v prev=%v", rho, b, prev)
		}
		prev = b
	}
}

// TestValidation exercises the error paths of Switch.Validate via the
// solver entry points.
func TestValidation(t *testing.T) {
	bad := []Switch{
		{N1: 0, N2: 4, Classes: []Class{{A: 1, Alpha: 1, Mu: 1}}},
		{N1: 4, N2: 4},
		{N1: 4, N2: 4, Classes: []Class{{A: 0, Alpha: 1, Mu: 1}}},
		{N1: 4, N2: 4, Classes: []Class{{A: 1, Alpha: -1, Mu: 1}}},
		{N1: 4, N2: 4, Classes: []Class{{A: 1, Alpha: 1, Mu: 0}}},
		{N1: 4, N2: 4, Classes: []Class{{A: 1, Alpha: 1, Beta: 2, Mu: 1}}},
	}
	for i, sw := range bad {
		if _, err := Solve(sw); err == nil {
			t.Errorf("case %d: invalid switch accepted: %+v", i, sw)
		}
		if _, err := SolveDirect(sw); err == nil {
			t.Errorf("case %d: invalid switch accepted by direct: %+v", i, sw)
		}
	}
}

// TestValidateDerivedRates: finite inputs whose derived rates are not
// usable — rho overflowing to +Inf, a_r rho_r underflowing to zero,
// beta/mu overflowing — are validation errors for both algorithms and
// their sweep layers, not panics or NaN measures.
func TestValidateDerivedRates(t *testing.T) {
	bad := map[string]Class{
		"rho overflows":        {A: 1, Alpha: 1e300, Mu: 1e-300},
		"a rho overflows":      {A: 3, Alpha: 1e308, Mu: 1},
		"rho underflows":       {A: 1, Alpha: 1e-300, Mu: 1e300},
		"pascal slope +Inf":    {A: 1, Alpha: 1, Beta: 1e300, Mu: 1e-300},
		"bernoulli slope -Inf": {A: 1, Alpha: 1e300, Beta: -1e300 / 8, Mu: 1e-300},
		"NaN alpha":            {A: 1, Alpha: math.NaN(), Mu: 1},
	}
	for name, c := range bad {
		sw := Switch{N1: 4, N2: 4, Classes: []Class{{A: 1, Alpha: 0.1, Mu: 1}, c}}
		if err := sw.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
		if _, err := Solve(sw); err == nil {
			t.Errorf("%s: Solve accepted %+v", name, c)
		}
		if _, err := SolveMVA(sw); err == nil {
			t.Errorf("%s: SolveMVA accepted %+v", name, c)
		}
		if _, err := NewSweepSolver(sw); err == nil {
			t.Errorf("%s: NewSweepSolver accepted %+v", name, c)
		}
		if _, err := NewMVASweepSolver(sw); err == nil {
			t.Errorf("%s: NewMVASweepSolver accepted %+v", name, c)
		}
	}
	// Extreme but representable rates stay valid.
	ok := Switch{N1: 4, N2: 4, Classes: []Class{{A: 1, Alpha: 1e-300, Mu: 1e-10}, {A: 2, Alpha: 1e200, Mu: 1e-10}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("representable extreme rates rejected: %v", err)
	}
}

// TestClassMarginals: each per-class marginal is a distribution whose
// mean matches E_r and whose full shape matches direct state-space
// enumeration.
func TestClassMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		sw := randomSwitch(rng)
		conv, err := SolveConvolution(sw)
		if err != nil {
			t.Fatal(err)
		}
		// Direct marginals by enumeration.
		direct := make([][]float64, len(sw.Classes))
		for r := range sw.Classes {
			direct[r] = make([]float64, sw.maxCount(r)+1)
		}
		chainSum := 0.0
		birth := make([]RateFunc, len(sw.Classes))
		death := make([]RateFunc, len(sw.Classes))
		for i, c := range sw.Classes {
			c := c
			birth[i] = c.Rate
			death[i] = func(k int) float64 { return float64(k) * c.Mu }
		}
		phi, err := phiTables(sw, birth, death)
		if err != nil {
			t.Fatal(err)
		}
		psi := psiTableInto(nil, sw)
		sw.WalkStates(func(k []int) {
			w := stateWeightPsi(sw, psi, phi, k).Float64()
			chainSum += w
			for r, kr := range k {
				direct[r][kr] += w
			}
		})
		for r := range sw.Classes {
			sum := 0.0
			for j, p := range conv.ClassMarginals[r] {
				sum += p
				want := direct[r][j] / chainSum
				if !floats.Close(p, want, 1e-8) {
					t.Errorf("trial %d class %d: P(k=%d) = %v, direct %v (switch %+v)",
						trial, r, j, p, want, sw)
				}
			}
			if !floats.Close(sum, 1, 1e-9) {
				t.Errorf("trial %d class %d: marginal sums to %v", trial, r, sum)
			}
		}
		if t.Failed() {
			return
		}
	}
}

// TestCarriedPeakednessBelowOffered: blocking truncates the busy
// distribution, so carried traffic is smoother than offered — for a
// Poisson source the carried Z drops below 1 (the classical smoothing
// of carried traffic; its overflow complement is Wilkinson's peaky
// traffic [33]).
func TestCarriedPeakednessBelowOffered(t *testing.T) {
	sw := Switch{N1: 4, N2: 4, Classes: []Class{{A: 1, Alpha: 0.5, Mu: 1}}}
	res, err := SolveConvolution(sw)
	if err != nil {
		t.Fatal(err)
	}
	z := res.CarriedPeakedness(0)
	if z >= 1 || z <= 0 {
		t.Errorf("carried peakedness %v, want in (0,1) for blocked Poisson traffic", z)
	}
}

// TestCarriedPeakednessPanicsWithoutMarginals.
func TestCarriedPeakednessPanicsWithoutMarginals(t *testing.T) {
	sw := Switch{N1: 2, N2: 2, Classes: []Class{{A: 1, Alpha: 0.1, Mu: 1}}}
	res, err := Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("CarriedPeakedness on algorithm1 result did not panic")
		}
	}()
	res.CarriedPeakedness(0)
}

// TestResultAccessors covers the derived-measure helpers.
func TestResultAccessors(t *testing.T) {
	sw := Switch{N1: 3, N2: 4, Classes: []Class{
		{Name: "v", A: 1, Alpha: 0.2, Mu: 2},
		{A: 2, Alpha: 0.05, Mu: 1},
	}}
	res, err := Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Throughput(0), res.Concurrency[0]*2; !floats.Close(got, want, 1e-12) {
		t.Errorf("Throughput = %v, want %v", got, want)
	}
	wantUtil := (res.Concurrency[0] + 2*res.Concurrency[1]) / 3
	if got := res.Utilization(); !floats.Close(got, wantUtil, 1e-12) {
		t.Errorf("Utilization = %v, want %v", got, wantUtil)
	}
	s := res.String()
	if s == "" || !containsAll(s, "3x4", "algorithm1", "v{", "class2{") {
		t.Errorf("String = %q", s)
	}
	if got, want := sw.StateCount(), int64(0); got == want {
		t.Error("StateCount returned 0")
	}
	if got := sw.OccupancyOf([]int{1, 1}); got != 3 {
		t.Errorf("OccupancyOf = %d, want 3", got)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestRevenuePanicsOnBadWeights covers the Result.Revenue guard.
func TestRevenuePanicsOnBadWeights(t *testing.T) {
	sw := Switch{N1: 2, N2: 2, Classes: []Class{{A: 1, Alpha: 0.1, Mu: 1}}}
	res, err := Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Revenue with wrong weight count did not panic")
		}
	}()
	res.Revenue([]float64{1, 2})
}

// TestSolveDirectRatesValidation covers the error paths of the
// generalized direct evaluator.
func TestSolveDirectRatesValidation(t *testing.T) {
	sw := Switch{N1: 2, N2: 2, Classes: []Class{{A: 1, Alpha: 0.1, Mu: 1}}}
	unit := []RateFunc{func(int) float64 { return 1 }}
	if _, err := SolveDirectRates(Switch{N1: 0, N2: 2}, unit, unit); err == nil {
		t.Error("bad dims accepted")
	}
	if _, err := SolveDirectRates(sw, nil, unit); err == nil {
		t.Error("mismatched rate slices accepted")
	}
	negBirth := []RateFunc{func(int) float64 { return -1 }}
	if _, err := SolveDirectRates(sw, negBirth, unit); err == nil {
		t.Error("negative birth rate accepted")
	}
	zeroDeath := []RateFunc{func(int) float64 { return 0 }}
	if _, err := SolveDirectRates(sw, unit, zeroDeath); err == nil {
		t.Error("zero death rate accepted")
	}
}

// TestPerRouteOversizedClass: converting an aggregate class wider than
// the switch keeps intensities finite (the state space then carries
// nothing).
func TestPerRouteOversizedClass(t *testing.T) {
	ac := AggregateClass{Name: "wide", A: 5, AlphaTilde: 0.1, Mu: 1}
	c := ac.PerRoute(3) // C(3,5) = 0
	if c.Alpha != 0.1 || c.A != 5 {
		t.Errorf("PerRoute with zero binom: %+v", c)
	}
}

// TestStateDependentServiceConstructor: the Section 2 dual — unit-rate
// Poisson arrivals with service mu(k) = k mu/(v + delta k) — solved
// through the BPP constructor equals the literal state-dependent-rates
// evaluation.
func TestStateDependentServiceConstructor(t *testing.T) {
	const (
		v     = 0.6
		delta = 0.3
		mu    = 1.1
	)
	sw := Switch{N1: 4, N2: 5, Classes: []Class{
		StateDependentServiceClass("dual", 1, v, delta, mu),
	}}
	viaBPP, err := SolveDirect(sw)
	if err != nil {
		t.Fatal(err)
	}
	literal, err := SolveDirectRates(sw,
		[]RateFunc{func(int) float64 { return 1 }},
		[]RateFunc{func(k int) float64 {
			return float64(k) * mu / (v + delta*float64(k))
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Close(viaBPP.NonBlocking[0], literal.NonBlocking[0], 1e-10) {
		t.Errorf("NonBlocking: BPP dual %v, literal %v", viaBPP.NonBlocking[0], literal.NonBlocking[0])
	}
	if !floats.Close(viaBPP.Concurrency[0], literal.Concurrency[0], 1e-10) {
		t.Errorf("Concurrency: BPP dual %v, literal %v", viaBPP.Concurrency[0], literal.Concurrency[0])
	}
}
