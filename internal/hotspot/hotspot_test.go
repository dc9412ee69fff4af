package hotspot

import (
	"math"
	"testing"

	"xbar/internal/core"
	"xbar/internal/floats"
)

// TestUniformReducesToProductForm: with p = 1/N2 the hot output is
// just another output and the exact (h, c) chain must reproduce the
// paper's product-form measures.
func TestUniformReducesToProductForm(t *testing.T) {
	const n1, n2 = 4, 5
	const lambda, mu = 3.0, 1.0
	m := Model{N1: n1, N2: n2, Lambda: lambda, Mu: mu, HotFraction: 1.0 / n2}
	got, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	sw := core.Switch{N1: n1, N2: n2, Classes: []core.Class{{
		A: 1, Alpha: lambda / (n1 * n2), Mu: mu,
	}}}
	want, err := core.Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Close(got.NonBlocking, want.NonBlocking[0], 1e-9) {
		t.Errorf("uniform NonBlocking %v, product form %v", got.NonBlocking, want.NonBlocking[0])
	}
	if !floats.Close(got.HotNonBlocking, got.ColdNonBlocking, 1e-9) {
		t.Errorf("uniform case: hot %v != cold %v", got.HotNonBlocking, got.ColdNonBlocking)
	}
	if !floats.Close(got.MeanBusy, want.Concurrency[0], 1e-9) {
		t.Errorf("uniform MeanBusy %v, product form %v", got.MeanBusy, want.Concurrency[0])
	}
}

// TestHotSpotDegradesHotTraffic: concentrating traffic on one output
// hurts requests for that output far more than the cold ones, and the
// effect grows with the hot fraction.
func TestHotSpotDegradesHotTraffic(t *testing.T) {
	prevHotBlocking := -1.0
	for _, p := range []float64{0.2, 0.4, 0.6} {
		m := Model{N1: 8, N2: 8, Lambda: 4, Mu: 1, HotFraction: p}
		res, err := Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		hotB := 1 - res.HotNonBlocking
		coldB := 1 - res.ColdNonBlocking
		if hotB <= coldB {
			t.Errorf("p=%v: hot blocking %v should exceed cold %v", p, hotB, coldB)
		}
		if hotB <= prevHotBlocking {
			t.Errorf("p=%v: hot blocking %v not increasing", p, hotB)
		}
		prevHotBlocking = hotB
		// The hot output saturates: its utilization approaches 1 long
		// before the cold outputs are stressed.
		if p >= 0.4 && res.HotUtilization < 0.5 {
			t.Errorf("p=%v: hot utilization %v suspiciously low", p, res.HotUtilization)
		}
	}
}

// TestFlowConservation: accepted rate equals completion rate.
func TestFlowConservation(t *testing.T) {
	m := Model{N1: 6, N2: 7, Lambda: 5, Mu: 1.4, HotFraction: 0.3}
	res, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	acceptRate := m.Lambda * res.NonBlocking
	completeRate := m.Mu * res.MeanBusy
	if !floats.Close(acceptRate, completeRate, 1e-9) {
		t.Errorf("accepted %v != completed %v", acceptRate, completeRate)
	}
}

// TestSimulationMatchesExact: the fabric simulator confirms the (h, c)
// state reduction.
func TestSimulationMatchesExact(t *testing.T) {
	m := Model{N1: 5, N2: 6, Lambda: 4, Mu: 1, HotFraction: 0.5}
	want, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(m, SimConfig{Seed: 3, Warmup: 2000, Horizon: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.HotBlocking.Mean-(1-want.HotNonBlocking)) > 2*res.HotBlocking.HalfWidth {
		t.Errorf("hot blocking sim %v vs exact %v", res.HotBlocking, 1-want.HotNonBlocking)
	}
	if math.Abs(res.ColdBlocking.Mean-(1-want.ColdNonBlocking)) > 2*res.ColdBlocking.HalfWidth {
		t.Errorf("cold blocking sim %v vs exact %v", res.ColdBlocking, 1-want.ColdNonBlocking)
	}
	if math.Abs(res.MeanBusy.Mean-want.MeanBusy) > 2*res.MeanBusy.HalfWidth {
		t.Errorf("mean busy sim %v vs exact %v", res.MeanBusy, want.MeanBusy)
	}
	if res.Events == 0 {
		t.Error("no events")
	}
}

// TestExtremeHotFractions: p = 0 leaves the hot output idle; p = 1
// reduces the switch to a single shared output (blocking at least
// 1 - 1/(1+rho) shape).
func TestExtremeHotFractions(t *testing.T) {
	m := Model{N1: 4, N2: 4, Lambda: 2, Mu: 1, HotFraction: 0}
	res, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.HotUtilization != 0 {
		t.Errorf("p=0: hot utilization %v, want 0", res.HotUtilization)
	}
	m.HotFraction = 1
	res, err = Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	// All traffic aims at one output: at most one connection at a
	// time, heavy blocking.
	if res.MeanBusy > 1 {
		t.Errorf("p=1: mean busy %v, cannot exceed 1", res.MeanBusy)
	}
	if 1-res.HotNonBlocking < 0.5 {
		t.Errorf("p=1 at rho=2: hot blocking %v suspiciously low", 1-res.HotNonBlocking)
	}
}

func TestValidation(t *testing.T) {
	bad := []Model{
		{N1: 0, N2: 4, Lambda: 1, Mu: 1, HotFraction: 0.5},
		{N1: 4, N2: 1, Lambda: 1, Mu: 1, HotFraction: 0.5},
		{N1: 4, N2: 4, Lambda: 0, Mu: 1, HotFraction: 0.5},
		{N1: 4, N2: 4, Lambda: 1, Mu: 0, HotFraction: 0.5},
		{N1: 4, N2: 4, Lambda: 1, Mu: 1, HotFraction: 1.5},
	}
	for i, m := range bad {
		if _, err := Solve(m); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
	good := Model{N1: 4, N2: 4, Lambda: 1, Mu: 1, HotFraction: 0.5}
	if _, err := Simulate(good, SimConfig{Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := Simulate(good, SimConfig{Horizon: 10, Batches: 1}); err == nil {
		t.Error("single batch accepted")
	}
}

// TestTallSwitch: N1 > N2 exercises the occupancy cap on the input
// side.
func TestTallSwitch(t *testing.T) {
	m := Model{N1: 2, N2: 6, Lambda: 3, Mu: 1, HotFraction: 0.4}
	res, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanBusy > 2 {
		t.Errorf("mean busy %v exceeds the 2 available inputs", res.MeanBusy)
	}
	sim, err := Simulate(m, SimConfig{Seed: 6, Warmup: 1000, Horizon: 40000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sim.MeanBusy.Mean-res.MeanBusy) > 2*sim.MeanBusy.HalfWidth {
		t.Errorf("tall switch: sim busy %v vs exact %v", sim.MeanBusy, res.MeanBusy)
	}
}
