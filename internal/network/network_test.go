package network

import (
	"math"
	"reflect"
	"testing"

	"xbar/internal/core"
	"xbar/internal/grid"
)

func TestValidation(t *testing.T) {
	bad := []Network{
		{},
		{Switches: []Dim{{4, 4}}},
		{Switches: []Dim{{0, 4}}, Routes: []Route{{Path: []int{0}, Rate: 1, Mu: 1}}},
		{Switches: []Dim{{4, 4}}, Routes: []Route{{Path: []int{}, Rate: 1, Mu: 1}}},
		{Switches: []Dim{{4, 4}}, Routes: []Route{{Path: []int{1}, Rate: 1, Mu: 1}}},
		{Switches: []Dim{{4, 4}}, Routes: []Route{{Path: []int{0, 0}, Rate: 1, Mu: 1}}},
		{Switches: []Dim{{4, 4}}, Routes: []Route{{Path: []int{0}, Rate: 0, Mu: 1}}},
		{Switches: []Dim{{4, 4}}, Routes: []Route{{Path: []int{0}, Rate: 1, Mu: 0}}},
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("case %d: invalid network accepted", i)
		}
	}
}

// TestSingleSwitchReducesToCore: a one-hop network is exactly the
// single-switch model — the fixed point needs no approximation and the
// simulator must agree with the analytics.
func TestSingleSwitchReducesToCore(t *testing.T) {
	net := Network{
		Switches: []Dim{{4, 4}},
		Routes:   []Route{{Name: "only", Path: []int{0}, Rate: 0.8, Mu: 1}},
	}
	fp, err := FixedPoint(net, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	sw := core.Switch{N1: 4, N2: 4, Classes: []core.Class{{A: 1, Alpha: 0.8 / 16, Mu: 1}}}
	want, err := core.Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fp.RouteBlocking[0]-want.Blocking[0]) > 1e-10 {
		t.Errorf("fixed point %v, analytic %v", fp.RouteBlocking[0], want.Blocking[0])
	}
	res, err := Simulate(net, SimConfig{Seed: 1, Warmup: 2000, Horizon: 40000})
	if err != nil {
		t.Fatal(err)
	}
	ci := res.RouteBlocking[0]
	if math.Abs(ci.Mean-want.Blocking[0]) > 2*ci.HalfWidth {
		t.Errorf("simulated %v inconsistent with analytic %v", ci, want.Blocking[0])
	}
}

func tandem() Network {
	return Network{
		Switches: []Dim{{4, 4}, {4, 4}, {4, 4}},
		Routes: []Route{
			{Name: "long", Path: []int{0, 1, 2}, Rate: 0.5, Mu: 1},
			{Name: "left", Path: []int{0}, Rate: 0.6, Mu: 1},
			{Name: "right", Path: []int{2}, Rate: 0.6, Mu: 1},
		},
	}
}

// TestFixedPointStructure: longer paths block more; hop loads reflect
// thinning; iteration converges.
func TestFixedPointStructure(t *testing.T) {
	fp, err := FixedPoint(tandem(), 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Iterations < 2 {
		t.Errorf("suspiciously fast convergence: %d iterations", fp.Iterations)
	}
	if !(fp.RouteBlocking[0] > fp.RouteBlocking[1]) {
		t.Errorf("3-hop route blocking %v should exceed 1-hop %v",
			fp.RouteBlocking[0], fp.RouteBlocking[1])
	}
	// Middle switch carries only the long route; edge switches carry
	// more load.
	if !(fp.SwitchLoad[1] < fp.SwitchLoad[0]) {
		t.Errorf("middle load %v should be below edge load %v", fp.SwitchLoad[1], fp.SwitchLoad[0])
	}
	// Route blocking is the complement of the product of hop passes.
	pass := 1.0
	for _, s := range []int{0, 1, 2} {
		pass *= 1 - fp.SwitchBlocking[s]
	}
	if math.Abs(fp.RouteBlocking[0]-(1-pass)) > 1e-12 {
		t.Error("route blocking is not the product form of hop blockings")
	}
}

// TestFixedPointMatchesSimulation: the reduced-load approximation
// tracks the exact simulation at moderate load.
func TestFixedPointMatchesSimulation(t *testing.T) {
	net := tandem()
	fp, err := FixedPoint(net, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(net, SimConfig{Seed: 5, Warmup: 5000, Horizon: 120000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Routes {
		ci := res.RouteBlocking[i]
		// Allow CI width plus a 15% model error margin for the
		// independence approximation.
		if math.Abs(ci.Mean-fp.RouteBlocking[i]) > 2*ci.HalfWidth+0.15*fp.RouteBlocking[i] {
			t.Errorf("route %d: simulated %v vs fixed point %v", i, ci, fp.RouteBlocking[i])
		}
	}
}

func TestFixedPointArgsValidation(t *testing.T) {
	if _, err := FixedPoint(tandem(), 0, 10); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := FixedPoint(tandem(), 1e-10, 0); err == nil {
		t.Error("zero maxIter accepted")
	}
	if _, err := FixedPoint(Network{}, 1e-10, 10); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(tandem(), SimConfig{Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := Simulate(tandem(), SimConfig{Horizon: 10, Batches: 1}); err == nil {
		t.Error("single batch accepted")
	}
	if _, err := Simulate(Network{}, SimConfig{Horizon: 10}); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestSimulateDeterminism(t *testing.T) {
	a, err := Simulate(tandem(), SimConfig{Seed: 9, Horizon: 3000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tandem(), SimConfig{Seed: 9, Horizon: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events || a.Offered[0] != b.Offered[0] {
		t.Error("same seed diverged")
	}
}

// TestLoadIncreasesEndToEndBlocking: scaling all route rates up raises
// every route's blocking.
func TestLoadIncreasesEndToEndBlocking(t *testing.T) {
	base := tandem()
	hot := tandem()
	for i := range hot.Routes {
		hot.Routes[i].Rate *= 4
	}
	fpBase, err := FixedPoint(base, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	fpHot, err := FixedPoint(hot, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Routes {
		if fpHot.RouteBlocking[i] <= fpBase.RouteBlocking[i] {
			t.Errorf("route %d: blocking did not rise with load", i)
		}
	}
}

// TestMultirateRoutes: a bandwidth-2 route on the same path as a
// bandwidth-1 route blocks more at every hop, and the multirate fixed
// point tracks the exact simulation.
func TestMultirateRoutes(t *testing.T) {
	net := Network{
		Switches: []Dim{{8, 8}, {8, 8}},
		Routes: []Route{
			{Name: "narrow", Path: []int{0, 1}, Rate: 1.2, Mu: 1},
			{Name: "wide", Path: []int{0, 1}, Rate: 0.6, Mu: 1, Bandwidth: 2},
			{Name: "edge", Path: []int{0}, Rate: 1.0, Mu: 1},
		},
	}
	fp, err := FixedPoint(net, 1e-10, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !(fp.RouteBlocking[1] > fp.RouteBlocking[0]) {
		t.Errorf("wide route blocking %v should exceed narrow %v",
			fp.RouteBlocking[1], fp.RouteBlocking[0])
	}
	// Per-hop class blocking exists for both bandwidths at switch 0.
	if fp.ClassBlocking[0][2] <= fp.ClassBlocking[0][1] {
		t.Errorf("hop blocking a=2 (%v) should exceed a=1 (%v)",
			fp.ClassBlocking[0][2], fp.ClassBlocking[0][1])
	}
	res, err := Simulate(net, SimConfig{Seed: 17, Warmup: 5000, Horizon: 120000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Routes {
		ci := res.RouteBlocking[i]
		if math.Abs(ci.Mean-fp.RouteBlocking[i]) > 2*ci.HalfWidth+0.2*fp.RouteBlocking[i] {
			t.Errorf("route %d: simulated %v vs fixed point %v", i, ci, fp.RouteBlocking[i])
		}
	}
}

// TestBandwidthValidation: invalid bandwidths are rejected.
func TestBandwidthValidation(t *testing.T) {
	base := tandem()
	base.Routes[0].Bandwidth = -1
	if err := base.Validate(); err == nil {
		t.Error("negative bandwidth accepted")
	}
	base = tandem()
	base.Routes[0].Bandwidth = 5 // switches are 4x4
	if err := base.Validate(); err == nil {
		t.Error("bandwidth exceeding switch accepted")
	}
}

// TestFixedPointMemoBitIdentical: the grid-engine evaluation (dedup,
// memoization, group fills) must not change the fixed point by a
// single bit relative to the full-fill fallback, which pays a fresh
// lattice per switch per iteration exactly like the pre-engine code.
func TestFixedPointMemoBitIdentical(t *testing.T) {
	nets := map[string]Network{"tandem": tandem()}
	multi := tandem()
	multi.Routes = append(multi.Routes, Route{
		Name: "wide", Path: []int{0, 1}, Rate: 0.2, Mu: 0.5, Bandwidth: 2,
	})
	nets["multirate"] = multi
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			memo, err := FixedPointWith(net, FPConfig{Tol: 1e-10, MaxIter: 200})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := FixedPointWith(net, FPConfig{Tol: 1e-10, MaxIter: 200, NoMemo: true})
			if err != nil {
				t.Fatal(err)
			}
			if memo.Iterations != fresh.Iterations {
				t.Fatalf("iterations differ: memo %d, fresh %d", memo.Iterations, fresh.Iterations)
			}
			memoStats, freshStats := memo.Grid, fresh.Grid
			memo.Grid, fresh.Grid = grid.Stats{}, grid.Stats{}
			if !reflect.DeepEqual(memo, fresh) {
				t.Fatalf("memoized fixed point differs from full-fill fallback:\n memo %+v\nfresh %+v", memo, fresh)
			}
			// Only the tandem has sharable structure (symmetric edge
			// switches); the multirate net's switches are all distinct,
			// and the engine must not invent sharing there.
			if name == "tandem" && memoStats.Fills >= freshStats.Fills {
				t.Fatalf("memoization saved nothing: memo %+v, fresh %+v", memoStats, freshStats)
			}
		})
	}
}

// TestFixedPointGridSharing: in the tandem network the two edge
// switches see identical thinned loads every iteration — the IEEE
// product (1-b1)(1-b2) is commutative bit-exactly — so each iteration
// solves at most two distinct models for three switches.
func TestFixedPointGridSharing(t *testing.T) {
	fp, err := FixedPoint(tandem(), 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	s := fp.Grid
	if s.Points != 3*fp.Iterations {
		t.Fatalf("grid points %d, want %d (3 switches x %d iterations)", s.Points, 3*fp.Iterations, fp.Iterations)
	}
	if s.BatchHits < fp.Iterations {
		t.Fatalf("edge-switch symmetry not deduplicated: %+v over %d iterations", s, fp.Iterations)
	}
	if s.Fills > 2*fp.Iterations {
		t.Fatalf("more fills than distinct models: %+v", s)
	}
}

// TestSimulateAllocsFlatInHorizon pins an event loop that allocates
// nothing per arrival or departure: a run four times as long allocates
// at most a few more times than the short one (a port set for each new
// peak in connections up, and the queue's growth), where one
// allocation per event would add thousands.
func TestSimulateAllocsFlatInHorizon(t *testing.T) {
	net := tandem()
	net.Routes = append(net.Routes, Route{Path: []int{0, 1}, Rate: 0.5, Mu: 1, Bandwidth: 2})
	allocs := func(horizon float64) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Simulate(net, SimConfig{Seed: 9, Warmup: 100, Horizon: horizon}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(3000), allocs(12000)
	const slack = 8
	if long > short+slack {
		t.Errorf("%v allocations at horizon 12000, %v at 3000; want at most %d more", long, short, slack)
	}
}
