package transient

import (
	"math"
	"testing"

	"xbar/internal/core"
	"xbar/internal/floats"
	"xbar/internal/rng"
	"xbar/internal/statespace"
)

func chainFor(t *testing.T, sw core.Switch) *statespace.Chain {
	t.Helper()
	c, err := statespace.NewChain(sw, 50000)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTwoStateClosedForm: a 1x1 switch is a two-state chain with the
// textbook transient P(busy at t | empty) =
// alpha/(alpha+mu) (1 - e^{-(alpha+mu) t}).
func TestTwoStateClosedForm(t *testing.T) {
	const alpha, mu = 0.7, 1.3
	sw := core.Switch{N1: 1, N2: 1, Classes: []core.Class{{A: 1, Alpha: alpha, Mu: mu}}}
	chain := chainFor(t, sw)
	pi0, err := EmptyStart(chain)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0, 0.1, 0.5, 1, 2, 5}
	dists, err := Distributions(chain, pi0, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	busy := chain.StateIndex([]int{1})
	for i, tt := range times {
		want := alpha / (alpha + mu) * (1 - math.Exp(-(alpha+mu)*tt))
		if got := dists[i][busy]; !floats.Close(got, want, 1e-8) {
			t.Errorf("t=%v: P(busy) = %v, want %v", tt, got, want)
		}
	}
}

func multiSwitch() core.Switch {
	return core.Switch{N1: 3, N2: 3, Classes: []core.Class{
		{A: 1, Alpha: 0.2, Mu: 1},
		{A: 2, Alpha: 0.05, Beta: 0.02, Mu: 0.7},
	}}
}

// TestConvergenceToStationary: pi(t) approaches the solved stationary
// distribution as t grows, from any start.
func TestConvergenceToStationary(t *testing.T) {
	chain := chainFor(t, multiSwitch())
	stat, err := chain.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	pi0, err := EmptyStart(chain)
	if err != nil {
		t.Fatal(err)
	}
	dists, err := Distributions(chain, pi0, []float64{0.5, 2, 30}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	distance := func(a, b []float64) float64 {
		d := 0.0
		for i := range a {
			d += math.Abs(a[i] - b[i])
		}
		return d / 2
	}
	d1 := distance(dists[0], stat)
	d2 := distance(dists[1], stat)
	d3 := distance(dists[2], stat)
	if !(d1 > d2 && d2 > d3) {
		t.Errorf("total variation not shrinking: %v, %v, %v", d1, d2, d3)
	}
	if d3 > 1e-8 {
		t.Errorf("not converged at t=30: TV distance %v", d3)
	}
}

// TestDistributionProperties: pi(t) is a distribution at every t, and
// t=0 returns the initial vector.
func TestDistributionProperties(t *testing.T) {
	chain := chainFor(t, multiSwitch())
	pi0, err := EmptyStart(chain)
	if err != nil {
		t.Fatal(err)
	}
	dists, err := Distributions(chain, pi0, []float64{0, 0.3, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ti, pi := range dists {
		sum := 0.0
		for _, p := range pi {
			if p < -1e-12 {
				t.Fatalf("t index %d: negative probability %v", ti, p)
			}
			sum += p
		}
		if !floats.Close(sum, 1, 1e-9) {
			t.Errorf("t index %d: probabilities sum to %v", ti, sum)
		}
	}
	for i := range pi0 {
		if !floats.Close(dists[0][i], pi0[i], 1e-12) {
			t.Errorf("t=0 distribution differs from initial at %d", i)
		}
	}
}

// TestLargeTime: uniformization stays stable at Poisson means far
// beyond e^-a underflow (a = Lambda t >> 745).
func TestLargeTime(t *testing.T) {
	sw := core.Switch{N1: 2, N2: 2, Classes: []core.Class{{A: 1, Alpha: 100, Mu: 100}}}
	chain := chainFor(t, sw)
	pi0, err := EmptyStart(chain)
	if err != nil {
		t.Fatal(err)
	}
	dists, err := Distributions(chain, pi0, []float64{50}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stat, err := chain.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	for i := range stat {
		if !floats.Close(dists[0][i], stat[i], 1e-6) {
			t.Errorf("state %d: pi(50) = %v, stationary %v", i, dists[0][i], stat[i])
		}
	}
}

// TestBlockingTrajectoryMonotoneFromEmpty: from a cold start the
// blocking probability rises monotonically to the stationary value.
func TestBlockingTrajectoryMonotoneFromEmpty(t *testing.T) {
	chain := chainFor(t, multiSwitch())
	pi0, err := EmptyStart(chain)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0, 0.25, 0.5, 1, 2, 4, 8, 16}
	traj, err := BlockingTrajectory(chain, pi0, 0, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if traj[0] != 0 {
		t.Errorf("cold-start blocking at t=0 is %v, want 0", traj[0])
	}
	// The rise is monotone up to a small late-time overshoot (multi-
	// class chains can approach the fixed point non-monotonically);
	// allow relative dips below 0.1%.
	for i := 1; i < len(traj); i++ {
		if traj[i] < traj[i-1]*(1-1e-3) {
			t.Errorf("blocking fell from %v to %v at t=%v", traj[i-1], traj[i], times[i])
		}
	}
	stat, err := chain.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	want := chain.Measures(stat).Blocking[0]
	if !floats.Close(traj[len(traj)-1], want, 1e-6) {
		t.Errorf("t=16 blocking %v, stationary %v", traj[len(traj)-1], want)
	}
}

// TestAgainstGillespieEnsemble: the uniformized E[k_r](t) matches an
// ensemble of direct stochastic simulations of the same chain.
func TestAgainstGillespieEnsemble(t *testing.T) {
	sw := core.Switch{N1: 3, N2: 3, Classes: []core.Class{{A: 1, Alpha: 0.4, Mu: 1}}}
	chain := chainFor(t, sw)
	pi0, err := EmptyStart(chain)
	if err != nil {
		t.Fatal(err)
	}
	const at = 1.5
	dists, err := Distributions(chain, pi0, []float64{at}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantE := chain.Measures(dists[0]).Concurrency[0]

	stream := rng.NewStream(77)
	const reps = 30000
	total := 0.0
	for rep := 0; rep < reps; rep++ {
		k := 0
		now := 0.0
		for {
			up := chain.Rate([]int{k}, 0, +1)
			down := chain.Rate([]int{k}, 0, -1)
			rate := up + down
			if rate == 0 {
				break
			}
			dt := stream.Exp(rate)
			if now+dt > at {
				break
			}
			now += dt
			if stream.Float64() < up/rate {
				k++
			} else {
				k--
			}
		}
		total += float64(k)
	}
	got := total / reps
	if math.Abs(got-wantE) > 0.02*math.Max(wantE, 0.1) {
		t.Errorf("ensemble E[k](%v) = %v, uniformization %v", at, got, wantE)
	}
}

// TestRelaxationTime: the cold-start settling time is on the order of
// a few holding times and shrinks as service speeds up.
func TestRelaxationTime(t *testing.T) {
	slow := core.Switch{N1: 2, N2: 2, Classes: []core.Class{{A: 1, Alpha: 0.1, Mu: 0.5}}}
	fast := core.Switch{N1: 2, N2: 2, Classes: []core.Class{{A: 1, Alpha: 0.4, Mu: 2}}}
	tSlow, err := RelaxationTime(chainFor(t, slow), 0.01, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tFast, err := RelaxationTime(chainFor(t, fast), 0.01, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tFast >= tSlow {
		t.Errorf("fast service relaxation %v should be below slow %v", tFast, tSlow)
	}
	if tSlow <= 0 || tSlow > 40 {
		t.Errorf("slow relaxation time %v implausible", tSlow)
	}
}

func TestValidation(t *testing.T) {
	chain := chainFor(t, multiSwitch())
	pi0, err := EmptyStart(chain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Distributions(chain, pi0[:2], []float64{1}, Options{}); err == nil {
		t.Error("short initial vector accepted")
	}
	if _, err := Distributions(chain, pi0, []float64{-1}, Options{}); err == nil {
		t.Error("negative time accepted")
	}
	bad := append([]float64(nil), pi0...)
	bad[0] = 0.5
	if _, err := Distributions(chain, bad, []float64{1}, Options{}); err == nil {
		t.Error("unnormalized initial vector accepted")
	}
	if _, err := BlockingTrajectory(chain, pi0, 9, []float64{1}, Options{}); err == nil {
		t.Error("bad class accepted")
	}
	if _, err := RelaxationTime(chain, 0, 10, Options{}); err == nil {
		t.Error("frac = 0 accepted")
	}
	if _, err := RelaxationTime(chain, 0.01, 1e-9, Options{}); err == nil {
		t.Error("unreachable tMax accepted")
	}
}

// TestLoadStep: start from the stationary state under a light load,
// triple the load at t = 0, and watch blocking relax monotonically
// upward to the new stationary value.
func TestLoadStep(t *testing.T) {
	light := core.Switch{N1: 3, N2: 3, Classes: []core.Class{{A: 1, Alpha: 0.1, Mu: 1}}}
	heavy := core.Switch{N1: 3, N2: 3, Classes: []core.Class{{A: 1, Alpha: 0.3, Mu: 1}}}
	cLight := chainFor(t, light)
	cHeavy := chainFor(t, heavy)
	pi0, err := StationaryStart(cLight, cHeavy)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0, 0.5, 1, 2, 8}
	traj, err := BlockingTrajectory(cHeavy, pi0, 0, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// t=0 blocking is the light-load stationary view of the heavy
	// chain's acceptance geometry — the light stationary blocking.
	lightStat, err := cLight.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	wantStart := cLight.Measures(lightStat).Blocking[0]
	if math.Abs(traj[0]-wantStart) > 1e-9 {
		t.Errorf("t=0 blocking %v, want light stationary %v", traj[0], wantStart)
	}
	heavyStat, err := cHeavy.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	wantEnd := cHeavy.Measures(heavyStat).Blocking[0]
	if math.Abs(traj[len(traj)-1]-wantEnd) > 1e-6 {
		t.Errorf("t=8 blocking %v, want heavy stationary %v", traj[len(traj)-1], wantEnd)
	}
	for i := 1; i < len(traj); i++ {
		if traj[i] < traj[i-1]-1e-9 {
			t.Errorf("load step blocking fell from %v to %v", traj[i-1], traj[i])
		}
	}
}

// TestStationaryStartRejectsMismatchedSpaces.
func TestStationaryStartRejectsMismatchedSpaces(t *testing.T) {
	a := chainFor(t, core.Switch{N1: 3, N2: 3, Classes: []core.Class{{A: 1, Alpha: 0.1, Mu: 1}}})
	b := chainFor(t, core.Switch{N1: 4, N2: 4, Classes: []core.Class{{A: 1, Alpha: 0.1, Mu: 1}}})
	if _, err := StationaryStart(a, b); err == nil {
		t.Error("mismatched state spaces accepted")
	}
}
