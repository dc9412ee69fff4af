package asymptotic_test

import (
	"fmt"
	"math"
	"testing"

	"xbar/internal/asymptotic"
	"xbar/internal/core"
)

// classesOf converts a validated core.Switch into the tier's canonical
// per-route form, the same conversion core's dispatch layer performs.
func classesOf(sw core.Switch) []asymptotic.Class {
	out := make([]asymptotic.Class, len(sw.Classes))
	for i, c := range sw.Classes {
		out[i] = asymptotic.Class{A: c.A}
		out[i].Rho = c.Rho()
		if !c.IsPoisson() {
			out[i].BetaMu = c.BetaMu()
		}
	}
	return out
}

// batteryMix builds one named traffic mix at aggregate intensity l for
// an n x n switch. The mixes cover the regimes the tier must bound
// honestly: pure Poisson single- and multi-rate, Pascal (peaked),
// Bernoulli (smooth, finite population 2n), and a mixed wideband case.
func batteryMix(name string, n int, l float64) core.Switch {
	switch name {
	case "poisson1":
		return core.NewSwitch(n, n,
			core.AggregateClass{A: 1, AlphaTilde: l, Mu: 1})
	case "poisson13":
		return core.NewSwitch(n, n,
			core.AggregateClass{A: 1, AlphaTilde: l / 2, Mu: 1},
			core.AggregateClass{A: 3, AlphaTilde: l / 6, Mu: 1})
	case "pascal":
		return core.NewSwitch(n, n,
			core.AggregateClass{A: 1, AlphaTilde: l, BetaTilde: l, Mu: 1})
	case "smooth":
		return core.NewSwitch(n, n,
			core.AggregateClass{A: 1, AlphaTilde: l, BetaTilde: -l / float64(2*n), Mu: 1})
	case "mixed":
		return core.NewSwitch(n, n,
			core.AggregateClass{A: 1, AlphaTilde: l / 2, Mu: 1},
			core.AggregateClass{A: 2, AlphaTilde: l / 4, BetaTilde: l / 8, Mu: 0.5})
	}
	panic("unknown mix " + name)
}

var (
	batteryMixes = []string{"poisson1", "poisson13", "pascal", "smooth", "mixed"}
	// Aggregate intensities hitting roughly 10%/40%/70%/90% port
	// utilization for the Poisson a=1 mix (u = l (1-u)^2); the other
	// mixes land at nearby operating points.
	batteryLoads = []float64{0.125, 1.12, 7.8, 90}
	batterySizes = []int{16, 24, 32, 48, 64, 96, 128, 192, 256}
)

// relErr is |got - want| / |want|, +Inf against a zero want unless got
// is zero too. A NaN operand or an infinite want reads +Inf, so every
// e > bound check rejects it.
func relErr(got, want float64) float64 {
	if math.IsNaN(got) || math.IsNaN(want) || math.IsInf(want, 0) {
		return math.Inf(1)
	}
	if want == 0 { //lint:allow floatcmp exact zero guard for the relative-error denominator
		if got == 0 { //lint:allow floatcmp exact zero guard
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestErrorWithinBound is the tier's acceptance property: on every
// battery point where the exact solver runs, the relative error of
// every reported measure is within the estimate's own reported bound.
func TestErrorWithinBound(t *testing.T) {
	t.Parallel()
	for _, mix := range batteryMixes {
		for _, l := range batteryLoads {
			for _, n := range batterySizes {
				if n > 128 && testing.Short() {
					continue
				}
				sw := batteryMix(mix, n, l)
				if sw.Validate() != nil {
					continue // e.g. Pascal slope >= 1 at small n
				}
				name := fmt.Sprintf("%s/l=%g/n=%d", mix, l, n)
				exact, err := core.Solve(sw)
				if err != nil {
					t.Fatalf("%s: exact: %v", name, err)
				}
				est, err := asymptotic.Solve(sw.N1, sw.N2, classesOf(sw))
				if err != nil {
					t.Fatalf("%s: asymptotic: %v", name, err)
				}
				for r := range sw.Classes {
					b := est.Bound[r]
					if !(b > 0) || math.IsNaN(b) {
						t.Errorf("%s class %d: bound %v", name, r, b)
						continue
					}
					if e := relErr(est.NonBlocking[r], exact.NonBlocking[r]); e > b {
						t.Errorf("%s class %d: NB err %.3g exceeds bound %.3g (est %.6g exact %.6g)",
							name, r, e, b, est.NonBlocking[r], exact.NonBlocking[r])
					}
					if exact.Blocking[r] > 1e-300 {
						if e := relErr(est.Blocking[r], exact.Blocking[r]); e > b {
							t.Errorf("%s class %d: B err %.3g exceeds bound %.3g (est %.6g exact %.6g)",
								name, r, e, b, est.Blocking[r], exact.Blocking[r])
						}
					}
					if e := relErr(est.Concurrency[r], exact.Concurrency[r]); e > b {
						t.Errorf("%s class %d: E err %.3g exceeds bound %.3g (est %.6g exact %.6g)",
							name, r, e, b, est.Concurrency[r], exact.Concurrency[r])
					}
				}
				if d := math.Abs(est.LogG - exact.LogG); d > est.LogGErr {
					t.Errorf("%s: lnG err %.3g exceeds LogGErr %.3g (est %.6g exact %.6g)",
						name, d, est.LogGErr, est.LogG, exact.LogG)
				}
			}
		}
	}
}

// TestBoundCalibration reports the worst |error|/bound ratio over the
// battery (the safety-factor headroom) and fails if any usable bound
// is consumed past 90% — the margin that keeps TestErrorWithinBound
// robust on operating points between the battery's.
func TestBoundCalibration(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("calibration sweep needs the full battery")
	}
	worst, worstAt := 0.0, ""
	for _, mix := range batteryMixes {
		for _, l := range batteryLoads {
			for _, n := range batterySizes {
				sw := batteryMix(mix, n, l)
				if sw.Validate() != nil {
					continue
				}
				exact, err := core.Solve(sw)
				if err != nil {
					t.Fatalf("exact: %v", err)
				}
				est, err := asymptotic.Solve(sw.N1, sw.N2, classesOf(sw))
				if err != nil {
					t.Fatalf("asymptotic: %v", err)
				}
				for r := range sw.Classes {
					if est.Bound[r] >= asymptotic.BoundUnusable {
						continue // self-declared unusable; dispatch goes exact
					}
					ratio := relErr(est.Blocking[r], exact.Blocking[r]) / est.Bound[r]
					ratio = math.Max(ratio, relErr(est.Concurrency[r], exact.Concurrency[r])/est.Bound[r])
					if ratio > worst {
						worst, worstAt = ratio, fmt.Sprintf("%s/l=%g/n=%d class %d", mix, l, n, r)
					}
				}
			}
		}
	}
	t.Logf("worst error/bound ratio %.3f at %s", worst, worstAt)
	if worst > 0.9 {
		t.Errorf("bound margin exhausted: worst error/bound %.3f at %s", worst, worstAt)
	}
}

// TestBoundShrinksWithSize pins the expansion's reason to exist: at a
// fixed operating point the reported bound decreases with switch size
// (these sizes are asymptotic-only in practice, no exact run needed),
// and for the single-rate mixes it is below the default dispatch
// tolerance well inside the size range the exact solver cannot serve.
func TestBoundShrinksWithSize(t *testing.T) {
	t.Parallel()
	for _, mix := range batteryMixes {
		small := batteryMix(mix, 256, 1.12)
		large := batteryMix(mix, 2048, 1.12)
		estS, err := asymptotic.Solve(small.N1, small.N2, classesOf(small))
		if err != nil {
			t.Fatalf("%s n=256: %v", mix, err)
		}
		estL, err := asymptotic.Solve(large.N1, large.N2, classesOf(large))
		if err != nil {
			t.Fatalf("%s n=2048: %v", mix, err)
		}
		if estL.MaxBound() >= estS.MaxBound() {
			t.Errorf("%s: bound did not shrink: n=256 %.3g vs n=2048 %.3g", mix, estS.MaxBound(), estL.MaxBound())
		}
	}
	for _, mix := range []string{"poisson1", "smooth"} {
		sw := batteryMix(mix, 2048, 1.12)
		est, err := asymptotic.Solve(sw.N1, sw.N2, classesOf(sw))
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		if est.MaxBound() > 0.01 {
			t.Errorf("%s: n=2048 bound %.3g above the default dispatch tolerance", mix, est.MaxBound())
		}
	}
}

// TestValidation covers the tier's input contract.
func TestValidation(t *testing.T) {
	t.Parallel()
	ok := []asymptotic.Class{{A: 1, Rho: 0.01}}
	cases := []struct {
		name    string
		n1, n2  int
		classes []asymptotic.Class
	}{
		{"zero dim", 0, 8, ok},
		{"no classes", 8, 8, nil},
		{"bad a", 8, 8, []asymptotic.Class{{A: 0, Rho: 0.01}}},
		{"bad rho", 8, 8, []asymptotic.Class{{A: 1, Rho: -1}}},
		{"nan rho", 8, 8, []asymptotic.Class{{A: 1, Rho: math.NaN()}}},
		{"pascal radius", 8, 8, []asymptotic.Class{{A: 1, Rho: 0.01, BetaMu: 1}}},
		{"nan beta", 8, 8, []asymptotic.Class{{A: 1, Rho: 0.01, BetaMu: math.NaN()}}},
	}
	for _, tc := range cases {
		if _, err := asymptotic.Solve(tc.n1, tc.n2, tc.classes); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := asymptotic.Solve(8, 8, ok); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

// TestWideClassZero pins the exact boundary case: a class wider than
// the switch has NB = 0, B = 1, E = 0 with a zero bound.
func TestWideClassZero(t *testing.T) {
	t.Parallel()
	est, err := asymptotic.Solve(64, 64, []asymptotic.Class{
		{A: 1, Rho: 0.02},
		{A: 65, Rho: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.NonBlocking[1] != 0 || est.Blocking[1] != 1 || est.Concurrency[1] != 0 { //lint:allow floatcmp exact boundary case is computed, not approximated
		t.Errorf("wide class: NB=%v B=%v E=%v, want 0/1/0",
			est.NonBlocking[1], est.Blocking[1], est.Concurrency[1])
	}
}

// TestRectangular checks the expansion handles N1 != N2 (the wiring
// factors differ per side) against the exact solver.
func TestRectangular(t *testing.T) {
	t.Parallel()
	sw := core.NewSwitch(96, 160,
		core.AggregateClass{A: 1, AlphaTilde: 1.0, Mu: 1},
		core.AggregateClass{A: 2, AlphaTilde: 0.3, BetaTilde: 0.2, Mu: 1})
	exact, err := core.Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	est, err := asymptotic.Solve(sw.N1, sw.N2, classesOf(sw))
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Classes {
		if e := relErr(est.Blocking[r], exact.Blocking[r]); e > est.Bound[r] {
			t.Errorf("class %d: B err %.3g exceeds bound %.3g", r, e, est.Bound[r])
		}
	}
}
