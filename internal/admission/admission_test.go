package admission

import (
	"math"
	"testing"

	"xbar/internal/core"
	"xbar/internal/floats"
	"xbar/internal/sim"
	"xbar/internal/statespace"
)

// goldLead is a congested two-class switch where class "lead" is
// nearly worthless: the setting where trunk reservation should pay.
func goldLead() (core.Switch, []float64) {
	sw := core.Switch{N1: 4, N2: 4, Classes: []core.Class{
		{Name: "gold", A: 1, Alpha: 0.05, Mu: 1},
		{Name: "lead", A: 1, Alpha: 0.08, Mu: 1},
	}}
	return sw, []float64{1.0, 0.01}
}

// TestUncontrolledMatchesProductForm: limits at capacity reproduce the
// paper's uncontrolled model exactly.
func TestUncontrolledMatchesProductForm(t *testing.T) {
	sw, weights := goldLead()
	ev, err := Evaluate(sw, weights, []int{4, 4}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Classes {
		if !floats.Close(ev.Concurrency[r], want.Concurrency[r], 1e-8) {
			t.Errorf("E[%d] = %v, product form %v", r, ev.Concurrency[r], want.Concurrency[r])
		}
		// Poisson classes: call blocking equals time blocking.
		if !floats.Close(ev.CallBlocking[r], want.Blocking[r], 1e-8) {
			t.Errorf("call blocking[%d] = %v, product form %v", r, ev.CallBlocking[r], want.Blocking[r])
		}
	}
	if !floats.Close(ev.Revenue, want.Revenue(weights), 1e-8) {
		t.Errorf("revenue %v, product form %v", ev.Revenue, want.Revenue(weights))
	}
}

// TestZeroLimitSheds: limit 0 removes the class entirely and frees the
// switch for the other class.
func TestZeroLimitSheds(t *testing.T) {
	sw, weights := goldLead()
	ev, err := Evaluate(sw, weights, []int{4, 0}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if ev.CallBlocking[1] != 1 || ev.Concurrency[1] != 0 {
		t.Errorf("shed class: blocking %v concurrency %v", ev.CallBlocking[1], ev.Concurrency[1])
	}
	// Gold alone on the switch matches the single-class product form.
	solo, err := core.Solve(core.Switch{N1: 4, N2: 4, Classes: sw.Classes[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Close(ev.Concurrency[0], solo.Concurrency[0], 1e-8) {
		t.Errorf("gold E %v, solo product form %v", ev.Concurrency[0], solo.Concurrency[0])
	}
}

// TestReservationMonotonicity: tightening the lead limit can only
// reduce lead concurrency and increase gold concurrency.
func TestReservationMonotonicity(t *testing.T) {
	sw, weights := goldLead()
	prevLead, prevGold := math.Inf(1), -1.0
	for tLim := 4; tLim >= 0; tLim-- {
		ev, err := Evaluate(sw, weights, []int{4, tLim}, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Concurrency[1] > prevLead+1e-12 {
			t.Errorf("limit %d: lead concurrency %v rose above %v", tLim, ev.Concurrency[1], prevLead)
		}
		if ev.Concurrency[0] < prevGold-1e-12 {
			t.Errorf("limit %d: gold concurrency %v fell below %v", tLim, ev.Concurrency[0], prevGold)
		}
		prevLead, prevGold = ev.Concurrency[1], ev.Concurrency[0]
	}
}

// TestFlowBalance: in steady state, each class's acceptance rate
// equals its completion rate mu_r E_r — a policy-independent
// conservation law.
func TestFlowBalance(t *testing.T) {
	sw, _ := goldLead()
	policy, err := TrunkReservation(sw, []int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := statespace.NewChainWithPolicy(sw, 10000, policy)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := chain.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	meas := chain.Measures(pi)
	for r, cl := range sw.Classes {
		acceptRate := 0.0
		for i, k := range chain.States {
			acceptRate += pi[i] * chain.Rate(k, r, +1)
		}
		if want := cl.Mu * meas.Concurrency[r]; !floats.Close(acceptRate, want, 1e-8) {
			t.Errorf("class %d: accept rate %v != mu E = %v", r, acceptRate, want)
		}
	}
}

// TestReservationRaisesRevenue: in the congested gold/lead setting the
// optimal lead limit is interior (0 < T < capacity) and beats both no
// control and full shedding.
func TestReservationRaisesRevenue(t *testing.T) {
	sw, weights := goldLead()
	best, sweep, err := OptimizeReservation(sw, weights, 1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 5 {
		t.Fatalf("sweep has %d entries", len(sweep))
	}
	uncontrolled := sweep[4]
	if best.Revenue <= uncontrolled.Revenue {
		t.Errorf("best revenue %v does not beat uncontrolled %v", best.Revenue, uncontrolled.Revenue)
	}
	if best.Limits[1] == 4 {
		t.Errorf("optimal limit is no-control; expected an interior or zero limit")
	}
}

// TestSimulatorAgreesWithExactChain: the fabric simulator under the
// same policy reproduces the exact CTMC's call blocking and
// concurrency.
func TestSimulatorAgreesWithExactChain(t *testing.T) {
	sw, weights := goldLead()
	limits := []int{4, 2}
	ev, err := Evaluate(sw, weights, limits, 10000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Switch: sw, Seed: 11, Warmup: 3000, Horizon: 60000,
		Admit: func(k []int, class int) bool {
			occ := k[0] + k[1]
			return occ+sw.Classes[class].A <= limits[class]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Classes {
		c := res.Classes[r]
		if math.Abs(c.Concurrency.Mean-ev.Concurrency[r]) > 2*c.Concurrency.HalfWidth {
			t.Errorf("class %d: simulated E %v inconsistent with exact %v", r, c.Concurrency, ev.Concurrency[r])
		}
		if math.Abs(c.CallBlocking.Mean-ev.CallBlocking[r]) > 2*c.CallBlocking.HalfWidth {
			t.Errorf("class %d: simulated call blocking %v inconsistent with exact %v",
				r, c.CallBlocking, ev.CallBlocking[r])
		}
	}
}

func TestValidation(t *testing.T) {
	sw, weights := goldLead()
	if _, err := Evaluate(sw, weights[:1], []int{4, 4}, 10000); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, err := Evaluate(sw, weights, []int{4}, 10000); err == nil {
		t.Error("mismatched limits accepted")
	}
	if _, err := Evaluate(sw, weights, []int{4, -1}, 10000); err == nil {
		t.Error("negative limit accepted")
	}
	if _, _, err := OptimizeReservation(sw, weights, 5, 10000); err == nil {
		t.Error("out-of-range class accepted")
	}
}

// TestOptimizeReservations: coordinate descent over both classes finds
// a policy at least as good as the best single-class line search, its
// revenue matches a direct re-evaluation of the returned limits, and
// the memo absorbs the repeated vectors of later passes.
func TestOptimizeReservations(t *testing.T) {
	sw, weights := goldLead()
	best, stats, err := OptimizeReservations(sw, weights, 10000, 8)
	if err != nil {
		t.Fatal(err)
	}
	single, _, err := OptimizeReservation(sw, weights, 1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if best.Revenue < single.Revenue {
		t.Errorf("descent revenue %v below single-class optimum %v", best.Revenue, single.Revenue)
	}
	check, err := Evaluate(sw, weights, best.Limits, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Close(best.Revenue, check.Revenue, 1e-12) {
		t.Errorf("returned revenue %v does not match re-evaluation %v", best.Revenue, check.Revenue)
	}
	if stats.Passes < 2 {
		t.Errorf("descent converged in %d passes; the no-change pass should still be counted", stats.Passes)
	}
	if stats.MemoHits == 0 {
		t.Error("no memo hits across passes; the memoized evaluator is not being shared")
	}
	// Every evaluation is either a solve or a hit, and the stable pass
	// re-visits only seen vectors.
	evals := 1 + stats.Passes*len(sw.Classes)*(sw.MinN()+1)
	if stats.Solves+stats.MemoHits != evals {
		t.Errorf("solves %d + hits %d != evaluations %d", stats.Solves, stats.MemoHits, evals)
	}
}

// TestOptimizerCanonicalLimits: limit vectors above capacity collapse
// onto the uncontrolled policy's memo entry.
func TestOptimizerCanonicalLimits(t *testing.T) {
	sw, weights := goldLead()
	o, err := newOptimizer(sw, weights, 10000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := o.evaluate([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.evaluate([]int{9, 17})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("uncontrolled vectors did not share one evaluation")
	}
	if o.solves != 1 || o.hits != 1 {
		t.Errorf("solves %d, hits %d; want 1 and 1", o.solves, o.hits)
	}
	if _, _, err := OptimizeReservations(sw, weights, 10000, 0); err == nil {
		t.Error("maxPasses 0 accepted")
	}
}
