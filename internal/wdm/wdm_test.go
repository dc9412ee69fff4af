package wdm

import (
	"math"
	"runtime"
	"testing"

	"xbar/internal/link"
)

func TestValidate(t *testing.T) {
	good := Path{L: 3, W: 8, Rate: 1, Mu: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Path{
		{L: 0, W: 8, Rate: 1, Mu: 1},
		{L: 3, W: 0, Rate: 1, Mu: 1},
		{L: 3, W: 8, Rate: 0, Mu: 1},
		{L: 3, W: 8, Rate: 1, Mu: 0},
		{L: 3, W: 8, Rate: 1, Mu: 1, CrossRate: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid path accepted", i)
		}
	}
}

// TestSingleHopEqualsErlangB: on one hop both modes are a plain
// W-server loss group, and the simulated blocking matches Erlang-B.
func TestSingleHopEqualsErlangB(t *testing.T) {
	p := Path{L: 1, W: 6, Rate: 4, Mu: 1}
	want := link.ErlangB(6, 4)
	cb, err := p.ConversionBlocking()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cb-want) > 1e-12 {
		t.Errorf("conversion analytic %v, Erlang-B %v", cb, want)
	}
	for _, conv := range []bool{false, true} {
		res, err := Simulate(p, SimConfig{
			Converters: conv, Seed: 1, Warmup: 1000, Horizon: 40000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.EndToEndBlocking.Mean-want) > 2*res.EndToEndBlocking.HalfWidth {
			t.Errorf("converters=%v: simulated %v vs Erlang-B %v",
				conv, res.EndToEndBlocking, want)
		}
	}
}

// TestConvertersHelp: on a multi-hop path with cross traffic, the
// continuity constraint blocks strictly more than conversion, in both
// the approximations and the simulation.
func TestConvertersHelp(t *testing.T) {
	p := Path{L: 4, W: 8, Rate: 2, CrossRate: 2.5, Mu: 1}
	nc, err := p.ContinuityBlocking()
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.ConversionBlocking()
	if err != nil {
		t.Fatal(err)
	}
	if nc <= c {
		t.Errorf("analytic: continuity %v should exceed conversion %v", nc, c)
	}
	gain, err := ConversionGain(p)
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 1 {
		t.Errorf("conversion gain %v, want > 1", gain)
	}
	simNC, err := Simulate(p, SimConfig{Seed: 2, Warmup: 2000, Horizon: 60000})
	if err != nil {
		t.Fatal(err)
	}
	simC, err := Simulate(p, SimConfig{Converters: true, Seed: 3, Warmup: 2000, Horizon: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if simNC.EndToEndBlocking.Mean <= simC.EndToEndBlocking.Mean {
		t.Errorf("simulated: continuity %v should exceed conversion %v",
			simNC.EndToEndBlocking.Mean, simC.EndToEndBlocking.Mean)
	}
}

// TestBarryHumbletTracksSimulation: the independence approximation is
// in the right regime (same order) for a moderately loaded path with
// random-fit assignment (first-fit packs wavelengths and beats the
// approximation).
func TestBarryHumbletTracksSimulation(t *testing.T) {
	p := Path{L: 3, W: 8, Rate: 1.5, CrossRate: 3.0, Mu: 1}
	want, err := p.ContinuityBlocking()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(p, SimConfig{
		Assignment: RandomFit, Seed: 5, Warmup: 2000, Horizon: 120000,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.EndToEndBlocking.Mean
	if got > 4*want || got < want/4 {
		t.Errorf("simulated %v vs Barry-Humblet %v: more than 4x apart", got, want)
	}
}

// TestFirstFitBeatsRandom: wavelength packing reduces continuity
// blocking — the classical first-fit result.
func TestFirstFitBeatsRandom(t *testing.T) {
	p := Path{L: 4, W: 8, Rate: 1.5, CrossRate: 3.0, Mu: 1}
	ff, err := Simulate(p, SimConfig{Assignment: FirstFit, Seed: 6, Warmup: 2000, Horizon: 120000})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Simulate(p, SimConfig{Assignment: RandomFit, Seed: 7, Warmup: 2000, Horizon: 120000})
	if err != nil {
		t.Fatal(err)
	}
	if ff.EndToEndBlocking.Mean >= rf.EndToEndBlocking.Mean {
		t.Errorf("first-fit %v should block less than random %v",
			ff.EndToEndBlocking.Mean, rf.EndToEndBlocking.Mean)
	}
}

// TestLongerPathsBlockMore under continuity.
func TestLongerPathsBlockMore(t *testing.T) {
	prevAnalytic, prevSim := -1.0, -1.0
	for _, l := range []int{1, 2, 4} {
		p := Path{L: l, W: 6, Rate: 1, CrossRate: 2, Mu: 1}
		a, err := p.ContinuityBlocking()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(p, SimConfig{Seed: uint64(l), Warmup: 1000, Horizon: 40000})
		if err != nil {
			t.Fatal(err)
		}
		if a <= prevAnalytic {
			t.Errorf("L=%d: analytic blocking %v not increasing", l, a)
		}
		if res.EndToEndBlocking.Mean <= prevSim {
			t.Errorf("L=%d: simulated blocking %v not increasing", l, res.EndToEndBlocking.Mean)
		}
		prevAnalytic, prevSim = a, res.EndToEndBlocking.Mean
	}
}

// TestMoreWavelengthsReduceBlocking.
func TestMoreWavelengthsReduceBlocking(t *testing.T) {
	prev := 2.0
	for _, w := range []int{4, 8, 16} {
		p := Path{L: 3, W: w, Rate: 2, CrossRate: 2, Mu: 1}
		b, err := p.ContinuityBlocking()
		if err != nil {
			t.Fatal(err)
		}
		if b >= prev {
			t.Errorf("W=%d: blocking %v not decreasing", w, b)
		}
		prev = b
	}
}

func TestSimulateValidation(t *testing.T) {
	p := Path{L: 2, W: 4, Rate: 1, Mu: 1}
	if _, err := Simulate(p, SimConfig{Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := Simulate(p, SimConfig{Horizon: 10, Batches: 1}); err == nil {
		t.Error("single batch accepted")
	}
	if _, err := Simulate(p, SimConfig{Horizon: 10, Assignment: Assignment(9)}); err == nil {
		t.Error("unknown assignment accepted")
	}
	if _, err := Simulate(Path{}, SimConfig{Horizon: 10}); err == nil {
		t.Error("invalid path accepted")
	}
}

func TestAssignmentString(t *testing.T) {
	if FirstFit.String() != "first-fit" || RandomFit.String() != "random-fit" {
		t.Error("assignment names wrong")
	}
	if Assignment(9).String() != "Assignment(9)" {
		t.Error("unknown assignment name wrong")
	}
}

func TestDeterminismAndConservation(t *testing.T) {
	p := Path{L: 3, W: 4, Rate: 1.5, CrossRate: 1, Mu: 1}
	cfg := SimConfig{Seed: 9, Warmup: 500, Horizon: 20000}
	a, err := Simulate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events || a.Offered != b.Offered {
		t.Error("same seed diverged")
	}
	if a.Utilization <= 0 || a.Utilization >= 1 {
		t.Errorf("utilization %v out of (0,1)", a.Utilization)
	}
}

// TestSimulateAllocsFlatInHorizon pins an event loop that allocates
// nothing per arrival or teardown, with and without converters: a run
// four times as long allocates at most a few more times than the short
// one (a wavelength set for each new peak in circuits up, and the
// queue's growth), where one allocation per event would add thousands.
func TestSimulateAllocsFlatInHorizon(t *testing.T) {
	p := Path{L: 3, W: 8, Rate: 4, CrossRate: 1, Mu: 1}
	for _, conv := range []bool{false, true} {
		allocs := func(horizon float64) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := Simulate(p, SimConfig{Converters: conv, Assignment: RandomFit, Seed: 3, Warmup: 20, Horizon: horizon}); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(2000), allocs(8000)
		const slack = 8
		if long > short+slack {
			t.Errorf("converters %v: %v allocations at horizon 8000, %v at 2000; want at most %d more", conv, long, short, slack)
		}
	}
}

// TestSimulateLargePathMemory pins a run's up-front memory to the
// busy grid: on the largest path the scenario API accepts (L = W =
// 4096) with light load, Simulate must not size its wavelength sets or
// event queue for L*W circuits before the first event.
func TestSimulateLargePathMemory(t *testing.T) {
	p := Path{L: 4096, W: 4096, Rate: 0.01, Mu: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Simulate(p, SimConfig{Seed: 1, Warmup: 10, Horizon: 300}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	grid := uint64(p.L * p.W) // one bool per (link, wavelength)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*grid {
		t.Errorf("allocated %d bytes; want at most %d (twice the busy grid)", got, 2*grid)
	}
}
