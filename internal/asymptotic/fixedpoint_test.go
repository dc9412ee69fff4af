package asymptotic_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"xbar/internal/asymptotic"
	"xbar/internal/core"
)

// fixedPoint runs the endpoint fixed point on a core.Switch's classes.
func fixedPoint(sw core.Switch, tol float64, maxIter int) (*asymptotic.FixedPoint, error) {
	classes := make([]asymptotic.RateClass, len(sw.Classes))
	for i, c := range sw.Classes {
		classes[i] = asymptotic.RateClass{Name: c.Name, A: c.A, Alpha: c.Alpha, Beta: c.Beta, Mu: c.Mu}
	}
	return asymptotic.EndpointFixedPoint(sw.N1, sw.N2, classes, tol, maxIter)
}

// TestAccuracyAtPaperOperatingPoint: within a few percent of the exact
// algorithm on the Figure 1 setup, improving as N grows.
func TestAccuracyAtPaperOperatingPoint(t *testing.T) {
	prevErr := math.Inf(1)
	for _, n := range []int{16, 64, 256} {
		sw := core.NewSwitch(n, n,
			core.AggregateClass{Name: "p", A: 1, AlphaTilde: 0.0024, Mu: 1})
		exact, err := core.Solve(sw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fixedPoint(sw, 1e-12, 10000)
		if err != nil {
			t.Fatal(err)
		}
		e := relErr(got.Blocking[0], exact.Blocking[0])
		if e > 0.05 {
			t.Errorf("N=%d: approx blocking %v vs exact %v (%.2f%% off)",
				n, got.Blocking[0], exact.Blocking[0], 100*e)
		}
		if e > prevErr*1.5 {
			t.Errorf("N=%d: error %.4f not shrinking from %.4f", n, e, prevErr)
		}
		prevErr = e
		if relErr(got.Concurrency[0], exact.Concurrency[0]) > 0.05 {
			t.Errorf("N=%d: approx E %v vs exact %v", n, got.Concurrency[0], exact.Concurrency[0])
		}
	}
}

// TestMultiRateAccuracy on a moderately loaded two-class mix.
func TestMultiRateAccuracy(t *testing.T) {
	sw := core.Switch{N1: 32, N2: 32, Classes: []core.Class{
		{Name: "one", A: 1, Alpha: 0.005, Mu: 1},
		{Name: "two", A: 2, Alpha: 2e-6, Mu: 1},
	}}
	exact, err := core.Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fixedPoint(sw, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Classes {
		if relErr(got.Blocking[r], exact.Blocking[r]) > 0.10 {
			t.Errorf("class %d: approx %v vs exact %v", r, got.Blocking[r], exact.Blocking[r])
		}
	}
	// Wider class blocks more in both treatments.
	if !(got.Blocking[1] > got.Blocking[0]) {
		t.Error("a=2 should block more than a=1")
	}
}

// TestNonSquare: utilizations differ across sides.
func TestNonSquare(t *testing.T) {
	sw := core.Switch{N1: 16, N2: 64, Classes: []core.Class{
		{A: 1, Alpha: 0.002, Mu: 1},
	}}
	got, err := fixedPoint(sw, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !(got.InputUtilization > got.OutputUtilization) {
		t.Errorf("narrow side should be busier: in %v out %v",
			got.InputUtilization, got.OutputUtilization)
	}
	exact, err := core.Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(got.Blocking[0], exact.Blocking[0]) > 0.08 {
		t.Errorf("approx %v vs exact %v", got.Blocking[0], exact.Blocking[0])
	}
}

// TestHighLoadStability: the damped iteration converges even when the
// switch saturates.
func TestHighLoadStability(t *testing.T) {
	sw := core.Switch{N1: 8, N2: 8, Classes: []core.Class{
		{A: 1, Alpha: 0.5, Mu: 1}, // heavy overload
	}}
	got, err := fixedPoint(sw, 1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Blocking[0] <= 0.3 || got.Blocking[0] >= 1 {
		t.Errorf("overload blocking %v implausible", got.Blocking[0])
	}
}

func TestRejectsBursty(t *testing.T) {
	sw := core.Switch{N1: 4, N2: 4, Classes: []core.Class{
		{A: 1, Alpha: 0.1, Mu: 1, Name: "ok"},
		{A: 1, Alpha: 0.1, Beta: 0.05, Mu: 1, Name: "peaked"},
	}}
	_, err := fixedPoint(sw, 1e-10, 1000)
	if err == nil {
		t.Fatal("bursty class accepted")
	}
	if !errors.Is(err, asymptotic.ErrUnsupportedTraffic) {
		t.Errorf("error %q does not wrap asymptotic.ErrUnsupportedTraffic", err)
	}
	for _, want := range []string{"class 1", "peaked"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the offending class (%q)", err, want)
		}
	}
}

func TestArgValidation(t *testing.T) {
	sw := core.Switch{N1: 4, N2: 4, Classes: []core.Class{{A: 1, Alpha: 0.1, Mu: 1}}}
	if _, err := fixedPoint(sw, 0, 100); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := fixedPoint(sw, 1e-10, 0); err == nil {
		t.Error("zero maxIter accepted")
	}
	if _, err := fixedPoint(core.Switch{}, 1e-10, 100); err == nil {
		t.Error("invalid switch accepted")
	}
}

// TestAsymptoticBlocking: the closed-form N -> infinity limit is
// approached monotonically from below by the exact model at the
// paper's Figure 1 operating point, and the finite-N endpoint fixed
// point converges to it.
func TestAsymptoticBlocking(t *testing.T) {
	const alphaTilde = 0.0024
	limit, err := asymptotic.AsymptoticBlocking(alphaTilde)
	if err != nil {
		t.Fatal(err)
	}
	if limit <= 0 || limit >= 0.01 {
		t.Fatalf("asymptote %v implausible for alpha~ = %v", limit, alphaTilde)
	}
	prev := 0.0
	for _, n := range []int{32, 128, 512} {
		sw := core.NewSwitch(n, n,
			core.AggregateClass{A: 1, AlphaTilde: alphaTilde, Mu: 1})
		res, err := core.SolveMVA(sw)
		if err != nil {
			t.Fatal(err)
		}
		b := res.Blocking[0]
		if b >= limit {
			t.Errorf("N=%d: exact blocking %v should stay below the asymptote %v", n, b, limit)
		}
		if b <= prev {
			t.Errorf("N=%d: blocking %v not increasing toward the asymptote", n, b)
		}
		prev = b
	}
	// Within 1% by N = 512.
	if relErr(prev, limit) > 0.01 {
		t.Errorf("N=512 blocking %v still %.2f%% from asymptote %v", prev, 100*relErr(prev, limit), limit)
	}
	// The finite-N fixed point's own large-N value equals the
	// asymptote by construction.
	sw := core.NewSwitch(4096, 4096,
		core.AggregateClass{A: 1, AlphaTilde: alphaTilde, Mu: 1})
	got, err := fixedPoint(sw, 1e-14, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(got.Blocking[0], limit) > 1e-6 {
		t.Errorf("fixed point at N=4096 gives %v, asymptote %v", got.Blocking[0], limit)
	}
	if _, err := asymptotic.AsymptoticBlocking(-1); err == nil {
		t.Error("negative load accepted")
	}
}
