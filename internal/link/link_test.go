package link

import (
	"math"
	"testing"

	"xbar/internal/core"
	"xbar/internal/floats"
)

// erlangBDirect evaluates the defining formula
// B = (rho^c/c!) / sum_{k<=c} rho^k/k! with term-by-term accumulation.
func erlangBDirect(c int, rho float64) float64 {
	term := 1.0
	sum := 1.0
	for k := 1; k <= c; k++ {
		term *= rho / float64(k)
		sum += term
	}
	return term / sum
}

func TestErlangBKnownValues(t *testing.T) {
	cases := []struct {
		c    int
		rho  float64
		want float64
	}{
		{0, 5, 1},       // no servers: always blocked
		{1, 1, 0.5},     // B = rho/(1+rho)
		{2, 1, 1.0 / 5}, // (rho^2/2)/(1+rho+rho^2/2)
	}
	for _, c := range cases {
		if got := ErlangB(c.c, c.rho); !floats.Close(got, c.want, 1e-9) {
			t.Errorf("ErlangB(%d, %v) = %v, want %v", c.c, c.rho, got, c.want)
		}
	}
}

func TestErlangBMatchesDirectFormula(t *testing.T) {
	for _, c := range []int{5, 10, 50, 100} {
		for _, rho := range []float64{0.5, 5, 40, 90} {
			got := ErlangB(c, rho)
			want := erlangBDirect(c, rho)
			if !floats.Close(got, want, 1e-10) {
				t.Errorf("ErlangB(%d, %v) = %v, direct formula %v", c, rho, got, want)
			}
		}
	}
}

func TestErlangBMonotone(t *testing.T) {
	for c := 1; c < 30; c++ {
		if !(ErlangB(c, 10) < ErlangB(c-1, 10)) {
			t.Errorf("Erlang-B not decreasing in c at %d", c)
		}
	}
	prev := -1.0
	for _, rho := range []float64{0.1, 1, 5, 20} {
		b := ErlangB(10, rho)
		if b <= prev {
			t.Errorf("Erlang-B not increasing in rho at %v", rho)
		}
		prev = b
	}
}

func TestSolveReducesToErlangB(t *testing.T) {
	// One Poisson class with a=1: the link is an M/G/c/c queue.
	for _, rho := range []float64{0.5, 2, 8} {
		l := Link{C: 10, Classes: []Class{{A: 1, Alpha: rho, Mu: 1}}}
		res, err := Solve(l)
		if err != nil {
			t.Fatal(err)
		}
		if want := ErlangB(10, rho); !floats.Close(res.Blocking[0], want, 1e-10) {
			t.Errorf("rho=%v: blocking %v, want Erlang-B %v", rho, res.Blocking[0], want)
		}
		// Carried load = rho (1 - B).
		if want := rho * (1 - ErlangB(10, rho)); !floats.Close(res.Concurrency[0], want, 1e-10) {
			t.Errorf("rho=%v: concurrency %v, want %v", rho, res.Concurrency[0], want)
		}
	}
}

func TestKaufmanRobertsMatchesConvolution(t *testing.T) {
	l := Link{C: 24, Classes: []Class{
		{A: 1, Alpha: 4, Mu: 1},
		{A: 2, Alpha: 1.5, Mu: 0.5},
		{A: 6, Alpha: 0.25, Mu: 1},
	}}
	res, err := Solve(l)
	if err != nil {
		t.Fatal(err)
	}
	a := []int{1, 2, 6}
	rho := []float64{4, 3, 0.25}
	occ, blocking, err := KaufmanRoberts(24, a, rho)
	if err != nil {
		t.Fatal(err)
	}
	for s := range occ {
		if !floats.Close(occ[s], res.Occupancy[s], 1e-9) {
			t.Errorf("occupancy[%d]: KR %v convolution %v", s, occ[s], res.Occupancy[s])
		}
	}
	for r := range a {
		if !floats.Close(blocking[r], res.Blocking[r], 1e-9) {
			t.Errorf("blocking[%d]: KR %v convolution %v", r, blocking[r], res.Blocking[r])
		}
	}
}

func TestKaufmanRobertsValidation(t *testing.T) {
	if _, _, err := KaufmanRoberts(10, []int{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched slice lengths accepted")
	}
	if _, _, err := KaufmanRoberts(0, []int{1}, []float64{1}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestOccupancySumsToOne(t *testing.T) {
	l := Link{C: 12, Classes: []Class{
		{A: 1, Alpha: 2, Beta: 0.5, Mu: 1},
		{A: 3, Alpha: 0.4, Beta: -0.02, Mu: 1},
	}}
	res, err := Solve(l)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range res.Occupancy {
		sum += p
	}
	if !floats.Close(sum, 1, 1e-10) {
		t.Errorf("occupancy sums to %v", sum)
	}
}

func TestPeakyBlocksMoreThanPoisson(t *testing.T) {
	// Same mean offered load, increasing peakedness: blocking rises.
	// Mean load M = alpha/(mu - beta); hold M = 4 on C = 10.
	mkLink := func(beta float64) Link {
		alpha := 4 * (1 - beta)
		return Link{C: 10, Classes: []Class{{A: 1, Alpha: alpha, Beta: beta, Mu: 1}}}
	}
	prev := -1.0
	for _, beta := range []float64{0, 0.2, 0.4, 0.6} {
		res, err := Solve(mkLink(beta))
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocking[0] <= prev {
			t.Errorf("beta=%v: blocking %v not increasing in peakedness", beta, res.Blocking[0])
		}
		prev = res.Blocking[0]
	}
}

// TestCrossbarBlocksMoreThanLink quantifies the 2-D effect: at equal
// aggregate load and equal "capacity", the crossbar's requirement of
// idle ports on both coordinates produces more blocking than a 1-D
// link (each accepted route consumes an input AND an output, and
// contention exists on both).
func TestCrossbarBlocksMoreThanLink(t *testing.T) {
	l := Link{C: 8, Classes: []Class{{A: 1, Alpha: 2, Mu: 1}}}
	linkRes, err := Solve(l)
	if err != nil {
		t.Fatal(err)
	}
	xbarRes, err := core.Solve(l.CrossbarEquivalent())
	if err != nil {
		t.Fatal(err)
	}
	if xbarRes.Blocking[0] <= linkRes.Blocking[0] {
		t.Errorf("crossbar blocking %v should exceed link blocking %v",
			xbarRes.Blocking[0], linkRes.Blocking[0])
	}
	// The mapping offers the same total intensity, so each system
	// carries offered x (1 - its own blocking): for the crossbar,
	// E = rho_total (1 - B) exactly (Poisson, a = 1).
	if got, want := xbarRes.Concurrency[0], 2*(1-xbarRes.Blocking[0]); math.Abs(got-want) > 1e-9 {
		t.Errorf("crossbar carries %v, want offered x (1-B) = %v: load mapping is off", got, want)
	}
	// And the crossbar's specific-route blocking is approximately
	// endpoint contention: 2 x port utilization minus the overlap.
	util := xbarRes.Concurrency[0] / 8
	approx := 1 - (1-util)*(1-util)
	if math.Abs(xbarRes.Blocking[0]-approx) > 0.15*approx {
		t.Errorf("crossbar blocking %v far from endpoint-contention estimate %v",
			xbarRes.Blocking[0], approx)
	}
}

func TestValidation(t *testing.T) {
	bad := []Link{
		{C: 0, Classes: []Class{{A: 1, Alpha: 1, Mu: 1}}},
		{C: 4},
		{C: 4, Classes: []Class{{A: 0, Alpha: 1, Mu: 1}}},
		{C: 4, Classes: []Class{{A: 1, Alpha: 0, Mu: 1}}},
		{C: 4, Classes: []Class{{A: 1, Alpha: 1, Mu: 0}}},
		{C: 4, Classes: []Class{{A: 1, Alpha: 1, Beta: 2, Mu: 1}}},
	}
	for i, l := range bad {
		if _, err := Solve(l); err == nil {
			t.Errorf("case %d: invalid link accepted", i)
		}
	}
}

func TestErlangBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ErlangB(-1, 1) did not panic")
		}
	}()
	ErlangB(-1, 1)
}

// TestDelbrouckMatchesConvolution: the cited recursion [11] and the
// convolution evaluator agree on occupancy and blocking for mixed
// BPP multirate links.
func TestDelbrouckMatchesConvolution(t *testing.T) {
	l := Link{C: 20, Classes: []Class{
		{A: 1, Alpha: 3, Mu: 1},
		{A: 2, Alpha: 1, Beta: 0.4, Mu: 1},
		{A: 3, Alpha: 0.5, Beta: -0.01, Mu: 0.8},
	}}
	occ, blocking, err := Delbrouck(l)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(l)
	if err != nil {
		t.Fatal(err)
	}
	for s := range occ {
		if !floats.Close(occ[s], want.Occupancy[s], 1e-9) {
			t.Errorf("occupancy[%d]: delbrouck %v convolution %v", s, occ[s], want.Occupancy[s])
		}
	}
	for r := range l.Classes {
		if !floats.Close(blocking[r], want.Blocking[r], 1e-9) {
			t.Errorf("blocking[%d]: delbrouck %v convolution %v", r, blocking[r], want.Blocking[r])
		}
	}
}

// TestDelbrouckReducesToKaufmanRoberts for all-Poisson classes.
func TestDelbrouckReducesToKaufmanRoberts(t *testing.T) {
	l := Link{C: 15, Classes: []Class{
		{A: 1, Alpha: 4, Mu: 1},
		{A: 3, Alpha: 0.6, Mu: 1},
	}}
	occ, blocking, err := Delbrouck(l)
	if err != nil {
		t.Fatal(err)
	}
	krOcc, krB, err := KaufmanRoberts(15, []int{1, 3}, []float64{4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for s := range occ {
		if !floats.Close(occ[s], krOcc[s], 1e-12) {
			t.Errorf("occupancy[%d]: delbrouck %v KR %v", s, occ[s], krOcc[s])
		}
	}
	for r := range blocking {
		if !floats.Close(blocking[r], krB[r], 1e-12) {
			t.Errorf("blocking[%d]: delbrouck %v KR %v", r, blocking[r], krB[r])
		}
	}
}

func TestDelbrouckValidation(t *testing.T) {
	if _, _, err := Delbrouck(Link{C: 0}); err == nil {
		t.Error("invalid link accepted")
	}
}
