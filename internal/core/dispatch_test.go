package core_test

import (
	"math"
	"testing"

	"xbar/internal/core"
)

// dispatchSwitch builds the n x n two-class BPP mix the dispatch
// tests route through both tiers.
func dispatchSwitch(n int) core.Switch {
	return core.NewSwitch(n, n,
		core.AggregateClass{Name: "narrow", A: 1, AlphaTilde: 0.56, Mu: 1},
		core.AggregateClass{Name: "wide", A: 2, AlphaTilde: 0.28, BetaTilde: 0.14, Mu: 0.5})
}

// sameFloats reports bit-identity of two measure slices.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestParseDispatch covers the wire vocabulary round-trip.
func TestParseDispatch(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		in   string
		want core.Dispatch
	}{
		{"", core.DispatchAuto},
		{"auto", core.DispatchAuto},
		{"exact", core.DispatchExact},
		{"asymptotic", core.DispatchAsymptotic},
	} {
		got, err := core.ParseDispatch(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDispatch(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("Dispatch(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := core.ParseDispatch("lattice"); err == nil {
		t.Error("ParseDispatch accepted an unknown policy")
	}
}

// TestDispatchCutoffBoundary pins the routing decision at the size
// boundary: exactly at the cutoff the exact tier answers, one above
// the expansion does (the tolerance is opened wide so the bound
// cannot veto it, isolating the size test).
func TestDispatchCutoffBoundary(t *testing.T) {
	t.Parallel()
	const cutoff = 48
	opt := core.DispatchOptions{Cutoff: cutoff, Tolerance: math.Inf(1)}
	at, err := core.SolveAuto(dispatchSwitch(cutoff), opt)
	if err != nil {
		t.Fatal(err)
	}
	if at.Tier != core.TierExact {
		t.Errorf("n = cutoff: tier %q, want %q", at.Tier, core.TierExact)
	}
	above, err := core.SolveAuto(dispatchSwitch(cutoff+1), opt)
	if err != nil {
		t.Fatal(err)
	}
	if above.Tier != core.TierAsymptotic {
		t.Errorf("n = cutoff+1: tier %q, want %q", above.Tier, core.TierAsymptotic)
	}
	if above.MaxErrorBound() <= 0 {
		t.Errorf("asymptotic result reports no error bound")
	}
	// Rectangular: the cutoff compares against the larger dimension.
	rect := core.NewSwitch(8, cutoff+1,
		core.AggregateClass{A: 1, AlphaTilde: 0.5, Mu: 1})
	res, err := core.SolveAuto(rect, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != core.TierAsymptotic {
		t.Errorf("8x%d: tier %q, want %q (cutoff is on max dim)", cutoff+1, res.Tier, core.TierAsymptotic)
	}
}

// TestDispatchToleranceFallback brackets the tolerance around the
// expansion's own reported bound: just above it the asymptotic tier
// answers, just below it auto falls back to exact.
func TestDispatchToleranceFallback(t *testing.T) {
	t.Parallel()
	sw := dispatchSwitch(96)
	est, err := core.SolveAsymptotic(sw)
	if err != nil {
		t.Fatal(err)
	}
	bound := est.MaxErrorBound()
	if !(bound > 0) || bound >= 1e6 {
		t.Fatalf("test model's bound %v is not in a bracketable range", bound)
	}
	opt := core.DispatchOptions{Cutoff: 16, Tolerance: bound * 1.01}
	res, err := core.SolveAuto(sw, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != core.TierAsymptotic {
		t.Errorf("tolerance above bound: tier %q, want %q", res.Tier, core.TierAsymptotic)
	}
	opt.Tolerance = bound * 0.99
	res, err = core.SolveAuto(sw, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != core.TierExact {
		t.Errorf("tolerance below bound: tier %q, want %q", res.Tier, core.TierExact)
	}
	if res.ErrorBound != nil {
		t.Errorf("exact fallback carries ErrorBound %v", res.ErrorBound)
	}
}

// TestSolveAutoExactBitIdentity pins that whenever the exact tier is
// chosen — forced policy, sub-cutoff auto, tolerance fallback, or a
// forced exact fill large enough to run as a wavefront — SolveAuto
// returns the same bits core.Solve does.
func TestSolveAutoExactBitIdentity(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		n    int
		opt  core.DispatchOptions
	}{
		{"forced exact", 96, core.DispatchOptions{Policy: core.DispatchExact, Cutoff: 16}},
		{"auto below cutoff", 32, core.DispatchOptions{}},
		{"tolerance fallback", 96, core.DispatchOptions{Cutoff: 16, Tolerance: 1e-9}},
		{"parallel fill", 600, core.DispatchOptions{Policy: core.DispatchExact}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sw := dispatchSwitch(tc.n)
			want, err := core.Solve(sw)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.SolveAuto(sw, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Tier != core.TierExact {
				t.Fatalf("tier %q, want %q", got.Tier, core.TierExact)
			}
			if !sameFloats(got.NonBlocking, want.NonBlocking) ||
				!sameFloats(got.Blocking, want.Blocking) ||
				!sameFloats(got.Concurrency, want.Concurrency) ||
				math.Float64bits(got.LogG) != math.Float64bits(want.LogG) {
				t.Errorf("SolveAuto exact tier is not bit-identical to Solve:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestDispatchAsymptoticForced pins the forced-asymptotic policy:
// it answers at any size regardless of the bound, and matches
// SolveAsymptotic.
func TestDispatchAsymptoticForced(t *testing.T) {
	t.Parallel()
	sw := dispatchSwitch(24) // small: auto would solve exactly
	res, err := core.SolveAuto(sw, core.DispatchOptions{Policy: core.DispatchAsymptotic, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != core.TierAsymptotic {
		t.Fatalf("tier %q, want %q", res.Tier, core.TierAsymptotic)
	}
	direct, err := core.SolveAsymptotic(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(res.Blocking, direct.Blocking) || !sameFloats(res.ErrorBound, direct.ErrorBound) {
		t.Error("forced asymptotic differs from SolveAsymptotic")
	}
	// The expansion tracks the exact answer here even though the
	// bound is loose at n=24; sanity-check against Solve.
	exact, err := core.Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Classes {
		if d := math.Abs(res.Blocking[r] - exact.Blocking[r]); d > res.ErrorBound[r] {
			t.Errorf("class %d: |asym-exact| = %.3g exceeds bound %.3g", r, d/exact.Blocking[r], res.ErrorBound[r])
		}
	}
}

// TestDispatchInvalidModel pins that every entry point validates.
func TestDispatchInvalidModel(t *testing.T) {
	t.Parallel()
	bad := core.Switch{N1: 0, N2: 8, Classes: []core.Class{{A: 1, Alpha: 1, Mu: 1}}}
	if _, err := core.SolveAsymptotic(bad); err == nil {
		t.Error("SolveAsymptotic accepted an invalid switch")
	}
	if _, err := core.SolveAuto(bad, core.DispatchOptions{Policy: core.DispatchAsymptotic}); err == nil {
		t.Error("SolveAuto accepted an invalid switch")
	}
}
