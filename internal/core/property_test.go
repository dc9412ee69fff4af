package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xbar/internal/combin"
	"xbar/internal/floats"
)

// switchFromSeed deterministically derives a random small switch from
// quick-generated integers, mixing traffic types.
func switchFromSeed(seed int64) Switch {
	rng := rand.New(rand.NewSource(seed))
	return randomSwitch(rng)
}

// TestPropertySymmetry: the normalization constant and every measure
// are symmetric in the switch dimensions (inputs and outputs play
// interchangeable roles in Psi).
func TestPropertySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		sw := switchFromSeed(seed)
		flipped := Switch{N1: sw.N2, N2: sw.N1, Classes: sw.Classes}
		a, err := Solve(sw)
		if err != nil {
			return false
		}
		b, err := Solve(flipped)
		if err != nil {
			return false
		}
		if !floats.Close(a.LogG, b.LogG, 1e-10) {
			return false
		}
		for r := range sw.Classes {
			if !floats.Close(a.NonBlocking[r], b.NonBlocking[r], 1e-10) ||
				!floats.Close(a.Concurrency[r], b.Concurrency[r], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBounds: probabilities stay in [0,1] and occupancy within
// capacity for arbitrary valid models.
func TestPropertyBounds(t *testing.T) {
	f := func(seed int64) bool {
		sw := switchFromSeed(seed)
		res, err := Solve(sw)
		if err != nil {
			return false
		}
		busy := 0.0
		for r, c := range sw.Classes {
			if res.NonBlocking[r] < 0 || res.NonBlocking[r] > 1 {
				return false
			}
			if res.Blocking[r] < 0 || res.Blocking[r] > 1 {
				return false
			}
			if res.Concurrency[r] < 0 {
				return false
			}
			busy += float64(c.A) * res.Concurrency[r]
		}
		return busy <= float64(sw.MinN())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTimeRescaling: multiplying every alpha, beta and mu by
// the same factor rescales time only — every stationary measure is
// unchanged.
func TestPropertyTimeRescaling(t *testing.T) {
	f := func(seed int64, scaleRaw uint8) bool {
		sw := switchFromSeed(seed)
		scale := 0.25 + float64(scaleRaw%40)/10 // 0.25 .. 4.15
		scaled := Switch{N1: sw.N1, N2: sw.N2}
		for _, c := range sw.Classes {
			c.Alpha *= scale
			c.Beta *= scale
			c.Mu *= scale
			scaled.Classes = append(scaled.Classes, c)
		}
		a, err := Solve(sw)
		if err != nil {
			return false
		}
		b, err := Solve(scaled)
		if err != nil {
			return false
		}
		for r := range sw.Classes {
			if !floats.Close(a.NonBlocking[r], b.NonBlocking[r], 1e-9) ||
				!floats.Close(a.Concurrency[r], b.Concurrency[r], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPoissonIdentity: for Poisson classes the Section 3
// identity E_r = rho_r P(N1,a) P(N2,a) B_r ties concurrency and
// non-blocking together; verify it on the solver output.
func TestPropertyPoissonIdentity(t *testing.T) {
	f := func(seed int64) bool {
		sw := switchFromSeed(seed)
		res, err := Solve(sw)
		if err != nil {
			return false
		}
		for r, c := range sw.Classes {
			if !c.IsPoisson() || c.A > sw.MinN() {
				continue
			}
			want := c.Rho() * combin.Perm(sw.N1, c.A) * combin.Perm(sw.N2, c.A) * res.NonBlocking[r]
			if !floats.Close(res.Concurrency[r], want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// singleClassPoisson derives a one-class Poisson switch from a seed.
// The classical monotonicity properties below hold only there: with
// peaky (beta > 0) sources, admitted connections raise the arrival
// rate, and with MULTIRATE mixtures, shifting load between classes of
// different a_r produces genuine blocking paradoxes. Both are pinned
// as regression anchors further down.
func singleClassPoisson(seed int64) Switch {
	rng := rand.New(rand.NewSource(seed))
	sw := randomSwitch(rng)
	c := sw.Classes[0]
	c.Beta = 0
	return Switch{N1: sw.N1, N2: sw.N2, Classes: []Class{c}}
}

// TestPropertyLoadMonotonicitySingleClass: for a single Poisson class,
// raising the load cannot lower blocking (the occupancy birth-death
// chain is stochastically increasing in alpha).
func TestPropertyLoadMonotonicitySingleClass(t *testing.T) {
	f := func(seed int64, bumpRaw uint8) bool {
		sw := singleClassPoisson(seed)
		bump := 1.1 + float64(bumpRaw%30)/10
		heavier := Switch{N1: sw.N1, N2: sw.N2, Classes: append([]Class(nil), sw.Classes...)}
		heavier.Classes[0].Alpha *= bump
		a, err := Solve(sw)
		if err != nil {
			return false
		}
		b, err := Solve(heavier)
		if err != nil {
			return false
		}
		return b.Blocking[0] >= a.Blocking[0]-1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGrowingSwitchAtFixedTotalLoad: for a single Poisson
// class, enlarging both dimensions while holding the TOTAL offered
// intensity fixed (Figure 4's normalization) cannot increase blocking.
// (At fixed per-route intensity the total load grows like N^2 and
// blocking rises with N — that is Figures 1-3.)
func TestPropertyGrowingSwitchAtFixedTotalLoad(t *testing.T) {
	f := func(seed int64) bool {
		sw := singleClassPoisson(seed)
		c := sw.Classes[0]
		if c.A > sw.MinN() {
			return true // nothing carried either way
		}
		scale := combin.Perm(sw.N1, c.A) * combin.Perm(sw.N2, c.A) /
			(combin.Perm(sw.N1+1, c.A) * combin.Perm(sw.N2+1, c.A))
		c.Alpha *= scale
		bigger := Switch{N1: sw.N1 + 1, N2: sw.N2 + 1, Classes: []Class{c}}
		a, err := Solve(sw)
		if err != nil {
			return false
		}
		b, err := Solve(bigger)
		if err != nil {
			return false
		}
		return b.Blocking[0] <= a.Blocking[0]+1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestMultirateLoadParadox pins a genuine multirate phenomenon found
// by the property search (and confirmed against the exact CTMC):
// raising the load of an a=2 class REDUCES the a=1 class's blocking,
// because the extra medium connections displace a wide a=3 class whose
// circuits consumed more of the switch. Monotonicity is a
// single-service property only.
func TestMultirateLoadParadox(t *testing.T) {
	base := Switch{N1: 6, N2: 7, Classes: []Class{
		{A: 1, Alpha: 0.28584140341393866, Mu: 1.9012000141728802},
		{A: 2, Alpha: 0.14105121106615076, Mu: 1.5461999136612012},
		{A: 3, Alpha: 0.27445618130834776, Mu: 1.5866180703748043},
	}}
	heavier := Switch{N1: 6, N2: 7, Classes: append([]Class(nil), base.Classes...)}
	heavier.Classes[1].Alpha *= 1.8
	a, err := Solve(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(heavier)
	if err != nil {
		t.Fatal(err)
	}
	if !(b.Blocking[0] < a.Blocking[0]) {
		t.Errorf("expected the multirate paradox: class-1 blocking %v -> %v", a.Blocking[0], b.Blocking[0])
	}
	if !(b.Concurrency[2] < a.Concurrency[2]) {
		t.Errorf("expected the wide class to be displaced: E3 %v -> %v", a.Concurrency[2], b.Concurrency[2])
	}
}

// TestPeakyCapacityParadox pins down the genuine BPP phenomenon that
// falsifies the naive monotonicity intuition: for a peaky class, a
// bigger switch admits more connections, each admitted connection
// raises the arrival rate (beta k), and time congestion RISES with
// capacity at fixed per-route intensity. Verified against the exact
// CTMC when first found; kept as a regression anchor.
func TestPeakyCapacityParadox(t *testing.T) {
	cls := []Class{{A: 1, Alpha: 0.01129404630586925, Beta: 0.027059491141226532, Mu: 0.8585777066814367}}
	small, err := Solve(Switch{N1: 4, N2: 6, Classes: cls})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Solve(Switch{N1: 5, N2: 7, Classes: cls})
	if err != nil {
		t.Fatal(err)
	}
	if !(big.Blocking[0] > small.Blocking[0]) {
		t.Errorf("expected the peaky capacity paradox: small %v, big %v",
			small.Blocking[0], big.Blocking[0])
	}
	if !floats.Close(small.Blocking[0], 0.144973, 1e-4) || !floats.Close(big.Blocking[0], 0.207585, 1e-4) {
		t.Errorf("paradox anchors moved: %v, %v", small.Blocking[0], big.Blocking[0])
	}
}
