package statespace

import (
	"math"
	"math/rand"
	"testing"

	"xbar/internal/core"
	"xbar/internal/floats"
)

func smallSwitch() core.Switch {
	return core.Switch{N1: 4, N2: 3, Classes: []core.Class{
		{A: 1, Alpha: 0.3, Mu: 1},
		{A: 2, Alpha: 0.1, Beta: 0.04, Mu: 0.8},
	}}
}

func TestStateEnumeration(t *testing.T) {
	sw := smallSwitch()
	c, err := NewChain(sw, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(c.States)) != sw.StateCount() {
		t.Fatalf("enumerated %d states, StateCount says %d", len(c.States), sw.StateCount())
	}
	// min(N1,N2)=3, a=(1,2): states k1 + 2 k2 <= 3:
	// (0,0),(1,0),(2,0),(3,0),(0,1),(1,1) = 6 states.
	if len(c.States) != 6 {
		t.Fatalf("got %d states, want 6", len(c.States))
	}
	for i, k := range c.States {
		if c.StateIndex(k) != i {
			t.Errorf("StateIndex(%v) = %d, want %d", k, c.StateIndex(k), i)
		}
	}
	if c.StateIndex([]int{9, 9}) != -1 {
		t.Error("infeasible state found in index")
	}
}

func TestStateLimit(t *testing.T) {
	if _, err := NewChain(smallSwitch(), 3); err == nil {
		t.Error("state limit not enforced")
	}
}

func TestGeneratorRowsSumToZero(t *testing.T) {
	c, err := NewChain(smallSwitch(), 10000)
	if err != nil {
		t.Fatal(err)
	}
	q := c.Generator()
	for i, row := range q {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Errorf("row %d sums to %v", i, sum)
		}
		if q[i][i] > 0 {
			t.Errorf("diagonal %d is positive", i)
		}
	}
}

func TestArrivalRateMatchesPaper(t *testing.T) {
	// For a_r = 1 the acceptance intensity is (N1-k.A)(N2-k.A) lambda.
	sw := core.Switch{N1: 5, N2: 4, Classes: []core.Class{{A: 1, Alpha: 0.7, Beta: 0.1, Mu: 1}}}
	c, err := NewChain(sw, 1000)
	if err != nil {
		t.Fatal(err)
	}
	k := []int{2}
	want := float64(5-2) * float64(4-2) * (0.7 + 0.1*2)
	if got := c.Rate(k, 0, +1); !floats.Close(got, want, 1e-12) {
		t.Errorf("Rate up = %v, want %v", got, want)
	}
	if got := c.Rate(k, 0, -1); got != 2 {
		t.Errorf("Rate down = %v, want 2", got)
	}
	if got := c.Rate([]int{0}, 0, -1); got != 0 {
		t.Error("departure from empty state should be 0")
	}
	if got := c.Rate([]int{4}, 0, +1); got != 0 {
		t.Error("arrival beyond capacity should be 0")
	}
}

// TestStationaryEqualsProductForm is the reproduction's deepest check:
// the numerically solved pi Q = 0 equals the paper's Eq. 2 product
// form, state by state, over randomized models.
func TestStationaryEqualsProductForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		sw := randomSmallSwitch(rng)
		c, err := NewChain(sw, 20000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pi, err := c.Stationary()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pf := c.ProductForm()
		for i := range pi {
			if !floats.Close(pi[i], pf[i], 1e-7) {
				t.Errorf("trial %d state %v: solved %v product-form %v (switch %+v)",
					trial, c.States[i], pi[i], pf[i], sw)
			}
		}
		if t.Failed() {
			return
		}
	}
}

// TestReversibility verifies detailed balance under the product form
// (Section 2's reversibility claim) and global balance under the
// solved distribution.
func TestReversibility(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		sw := randomSmallSwitch(rng)
		c, err := NewChain(sw, 20000)
		if err != nil {
			t.Fatal(err)
		}
		pf := c.ProductForm()
		if res := c.DetailedBalanceResidual(pf); res > 1e-10 {
			t.Errorf("trial %d: detailed balance residual %v (switch %+v)", trial, res, sw)
		}
		if res := c.GlobalBalanceResidual(pf); res > 1e-9 {
			t.Errorf("trial %d: global balance residual %v (switch %+v)", trial, res, sw)
		}
	}
}

// TestMeasuresMatchCore closes the loop: CTMC-derived measures equal
// the analytical evaluators'.
func TestMeasuresMatchCore(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		sw := randomSmallSwitch(rng)
		c, err := NewChain(sw, 20000)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := c.Stationary()
		if err != nil {
			t.Fatal(err)
		}
		got := c.Measures(pi)
		want, err := core.Solve(sw)
		if err != nil {
			t.Fatal(err)
		}
		for r := range sw.Classes {
			if !floats.Close(got.NonBlocking[r], want.NonBlocking[r], 1e-7) {
				t.Errorf("trial %d: NonBlocking[%d] ctmc %v core %v (switch %+v)",
					trial, r, got.NonBlocking[r], want.NonBlocking[r], sw)
			}
			if !floats.Close(got.Concurrency[r], want.Concurrency[r], 1e-7) {
				t.Errorf("trial %d: Concurrency[%d] ctmc %v core %v (switch %+v)",
					trial, r, got.Concurrency[r], want.Concurrency[r], sw)
			}
		}
		if t.Failed() {
			return
		}
	}
}

func randomSmallSwitch(rng *rand.Rand) core.Switch {
	n1 := 2 + rng.Intn(4)
	n2 := 2 + rng.Intn(4)
	maxN := n1
	if n2 > maxN {
		maxN = n2
	}
	nClasses := 1 + rng.Intn(2)
	var classes []core.Class
	for i := 0; i < nClasses; i++ {
		a := 1 + rng.Intn(2)
		mu := 0.5 + rng.Float64()
		alpha := (0.05 + rng.Float64()*0.4) * mu
		var beta float64
		switch rng.Intn(3) {
		case 0:
		case 1:
			beta = rng.Float64() * 0.5 * mu
		case 2:
			pop := float64(maxN + 1 + rng.Intn(50))
			beta = -alpha / pop
			alpha = pop * (-beta)
		}
		classes = append(classes, core.Class{A: a, Alpha: alpha, Beta: beta, Mu: mu})
	}
	return core.Switch{N1: n1, N2: n2, Classes: classes}
}

func TestSolveDenseSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {1, 1}}
	b := []float64{1, 2}
	if _, err := solveDense(a, b); err == nil {
		t.Error("singular system accepted")
	}
}

func TestSolveDenseKnownSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Close(x[0], 1, 1e-12) || !floats.Close(x[1], 3, 1e-12) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

// TestCallBlockingPASTA: with Poisson classes call blocking equals the
// route-idle time congestion; the CallBlocking helper must agree with
// Measures.
func TestCallBlockingPASTA(t *testing.T) {
	sw := smallSwitch()
	c, err := NewChain(sw, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Make both classes Poisson for the PASTA identity.
	for i := range sw.Classes {
		sw.Classes[i].Beta = 0
	}
	c, err = NewChain(sw, 10000)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	call := c.CallBlocking(pi)
	meas := c.Measures(pi)
	for r := range sw.Classes {
		if !floats.Close(call[r], meas.Blocking[r], 1e-9) {
			t.Errorf("class %d: call blocking %v != time blocking %v", r, call[r], meas.Blocking[r])
		}
	}
}

// TestCallBlockingBurstyGap: for a peaky class the call blocking
// exceeds the time blocking.
func TestCallBlockingBurstyGap(t *testing.T) {
	sw := core.Switch{N1: 3, N2: 3, Classes: []core.Class{
		{A: 1, Alpha: 0.04, Beta: 0.5, Mu: 1},
	}}
	c, err := NewChain(sw, 10000)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	call := c.CallBlocking(pi)
	meas := c.Measures(pi)
	if call[0] <= meas.Blocking[0] {
		t.Errorf("peaky call blocking %v should exceed time blocking %v", call[0], meas.Blocking[0])
	}
}

// TestSolveLinearExported: the exported wrapper behaves like the
// internal solver.
func TestSolveLinearExported(t *testing.T) {
	a := [][]float64{{3, 0}, {0, 2}}
	b := []float64{6, 4}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Close(x[0], 2, 1e-12) || !floats.Close(x[1], 2, 1e-12) {
		t.Errorf("x = %v", x)
	}
}
