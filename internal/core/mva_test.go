package core

import (
	"math/rand"
	"testing"

	"xbar/internal/floats"
)

// TestMVAOneByOne pins the smallest closed-form case.
func TestMVAOneByOne(t *testing.T) {
	rho := 0.42
	sw := Switch{N1: 1, N2: 1, Classes: []Class{{A: 1, Alpha: rho, Mu: 1}}}
	res, err := SolveMVA(sw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.NonBlocking[0], 1/(1+rho); !floats.Close(got, want, 1e-12) {
		t.Errorf("NonBlocking = %v, want %v", got, want)
	}
	if got, want := res.Concurrency[0], rho/(1+rho); !floats.Close(got, want, 1e-12) {
		t.Errorf("Concurrency = %v, want %v", got, want)
	}
}

// TestMVAMatchesAlgorithm1 is the paper's implicit claim that the two
// algorithms compute the same measures, exercised over randomized
// multi-class multi-rate BPP models. This is also the test that pins
// the corrected D recursion (Eq. 19 erratum, see DESIGN.md).
func TestMVAMatchesAlgorithm1(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		sw := randomSwitch(rng)
		alg1, err := Solve(sw)
		if err != nil {
			t.Fatalf("trial %d: algorithm1: %v", trial, err)
		}
		mva, err := SolveMVA(sw)
		if err != nil {
			t.Fatalf("trial %d: algorithm2: %v", trial, err)
		}
		if !floats.Close(mva.LogG, alg1.LogG, 1e-9) {
			t.Errorf("trial %d: LogG mva %v alg1 %v (switch %+v)", trial, mva.LogG, alg1.LogG, sw)
		}
		for r := range sw.Classes {
			if !floats.Close(mva.NonBlocking[r], alg1.NonBlocking[r], 1e-9) {
				t.Errorf("trial %d: NonBlocking[%d] mva %v alg1 %v (switch %+v)",
					trial, r, mva.NonBlocking[r], alg1.NonBlocking[r], sw)
			}
			if !floats.Close(mva.Concurrency[r], alg1.Concurrency[r], 1e-9) {
				t.Errorf("trial %d: Concurrency[%d] mva %v alg1 %v (switch %+v)",
					trial, r, mva.Concurrency[r], alg1.Concurrency[r], sw)
			}
		}
		if t.Failed() {
			return
		}
	}
}

// TestMVALargeSystem checks Algorithm 2 stays in agreement with the
// scaled Algorithm 1 at sizes where unscaled arithmetic has long since
// underflowed — the numerical-stability claim of Section 5.1 — on a
// three-class mix including a multi-rate bursty class.
func TestMVALargeSystem(t *testing.T) {
	sw := NewSwitch(192, 160,
		AggregateClass{Name: "voice", A: 1, AlphaTilde: 0.0024, Mu: 1},
		AggregateClass{Name: "video", A: 2, AlphaTilde: 0.001, BetaTilde: 0.0005, Mu: 0.5},
		AggregateClass{Name: "data", A: 1, AlphaTilde: 0.003, BetaTilde: -0.003 / 400, Mu: 2},
	)
	alg1, err := Solve(sw)
	if err != nil {
		t.Fatal(err)
	}
	mva, err := SolveMVA(sw)
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Classes {
		if !floats.Close(mva.NonBlocking[r], alg1.NonBlocking[r], 1e-8) {
			t.Errorf("NonBlocking[%d] mva %v alg1 %v", r, mva.NonBlocking[r], alg1.NonBlocking[r])
		}
		if !floats.Close(mva.Concurrency[r], alg1.Concurrency[r], 1e-8) {
			t.Errorf("Concurrency[%d] mva %v alg1 %v", r, mva.Concurrency[r], alg1.Concurrency[r])
		}
	}
	if !floats.Close(mva.LogG, alg1.LogG, 1e-9) {
		t.Errorf("LogG mva %v alg1 %v", mva.LogG, alg1.LogG)
	}
}

// TestMVAResultAt checks sub-switch extraction matches a fresh solve.
func TestMVAResultAt(t *testing.T) {
	sw := Switch{N1: 12, N2: 9, Classes: []Class{
		{A: 1, Alpha: 0.2, Mu: 1},
		{A: 3, Alpha: 0.01, Beta: 0.004, Mu: 1},
	}}
	solver, err := NewMVASolver(sw)
	if err != nil {
		t.Fatal(err)
	}
	sub := solver.ResultAt(7, 9)
	fresh, err := SolveMVA(Switch{N1: 7, N2: 9, Classes: sw.Classes})
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Classes {
		if !floats.Close(sub.NonBlocking[r], fresh.NonBlocking[r], 1e-10) {
			t.Errorf("NonBlocking[%d]: lattice %v fresh %v", r, sub.NonBlocking[r], fresh.NonBlocking[r])
		}
		if !floats.Close(sub.Concurrency[r], fresh.Concurrency[r], 1e-10) {
			t.Errorf("Concurrency[%d]: lattice %v fresh %v", r, sub.Concurrency[r], fresh.Concurrency[r])
		}
	}
}

// TestMVARejectsInvalid mirrors the validation behaviour of the other
// solvers.
func TestMVARejectsInvalid(t *testing.T) {
	if _, err := SolveMVA(Switch{N1: 0, N2: 1, Classes: []Class{{A: 1, Alpha: 1, Mu: 1}}}); err == nil {
		t.Error("invalid switch accepted")
	}
}

// TestMVAExtremeGeometries: degenerate shapes exercise the lattice
// boundaries — a 1-row switch, a single-column switch, and a class
// that exactly fills min(N1, N2).
func TestMVAExtremeGeometries(t *testing.T) {
	cases := []Switch{
		{N1: 1, N2: 8, Classes: []Class{{A: 1, Alpha: 0.3, Mu: 1}}},
		{N1: 8, N2: 1, Classes: []Class{{A: 1, Alpha: 0.3, Mu: 1}}},
		{N1: 5, N2: 5, Classes: []Class{{A: 5, Alpha: 0.2, Mu: 1}}},
		{N1: 4, N2: 7, Classes: []Class{
			{A: 4, Alpha: 0.05, Mu: 1},
			{A: 1, Alpha: 0.2, Beta: 0.1, Mu: 1},
		}},
		{N1: 2, N2: 2, Classes: []Class{
			{A: 2, Alpha: 0.1, Beta: 0.05, Mu: 1},
			{A: 2, Alpha: 0.2, Mu: 2},
		}},
	}
	for i, sw := range cases {
		direct, err := SolveDirect(sw)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		mva, err := SolveMVA(sw)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		alg1, err := Solve(sw)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for r := range sw.Classes {
			for _, got := range []*Result{mva, alg1} {
				if !floats.Close(got.NonBlocking[r], direct.NonBlocking[r], 1e-9) {
					t.Errorf("case %d class %d: %s NonBlocking %v, direct %v",
						i, r, got.Method, got.NonBlocking[r], direct.NonBlocking[r])
				}
				if !floats.Close(got.Concurrency[r], direct.Concurrency[r], 1e-9) {
					t.Errorf("case %d class %d: %s Concurrency %v, direct %v",
						i, r, got.Method, got.Concurrency[r], direct.Concurrency[r])
				}
			}
		}
	}
}

// TestManyClasses: six classes stress the per-class bookkeeping in
// every evaluator (direct enumeration still feasible at this size).
func TestManyClasses(t *testing.T) {
	sw := Switch{N1: 5, N2: 6, Classes: []Class{
		{A: 1, Alpha: 0.1, Mu: 1},
		{A: 1, Alpha: 0.05, Beta: 0.02, Mu: 0.8},
		{A: 2, Alpha: 0.02, Mu: 1.5},
		{A: 2, Alpha: 0.01, Beta: 0.005, Mu: 1},
		{A: 3, Alpha: 0.005, Mu: 0.5},
		{A: 1, Alpha: 0.42, Beta: -0.06, Mu: 1}, // population 7 >= max(N1,N2)
	}}
	direct, err := SolveDirect(sw)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(Switch) (*Result, error){Solve, SolveMVA, SolveConvolution} {
		got, err := fn(sw)
		if err != nil {
			t.Fatal(err)
		}
		for r := range sw.Classes {
			if !floats.Close(got.NonBlocking[r], direct.NonBlocking[r], 1e-9) {
				t.Errorf("%s NonBlocking[%d] %v, direct %v", got.Method, r, got.NonBlocking[r], direct.NonBlocking[r])
			}
			if !floats.Close(got.Concurrency[r], direct.Concurrency[r], 1e-9) {
				t.Errorf("%s Concurrency[%d] %v, direct %v", got.Method, r, got.Concurrency[r], direct.Concurrency[r])
			}
		}
	}
}

// TestBurstyIndexMap pins the precomputed class->bursty-slot map that
// replaced the linear burstyR scan inside solveF's denominator loop
// (the scan made fill O(N^2 R^2); the map restores O(N^2 R)).
func TestBurstyIndexMap(t *testing.T) {
	sw := Switch{N1: 4, N2: 4, Classes: []Class{
		{A: 1, Alpha: 0.1, Mu: 1},                // Poisson
		{A: 1, Alpha: 0.05, Beta: 0.02, Mu: 1},   // bursty slot 0
		{A: 2, Alpha: 0.01, Mu: 1},               // Poisson
		{A: 2, Alpha: 0.01, Beta: -0.001, Mu: 1}, // bursty slot 1
		{A: 1, Alpha: 0.02, Beta: 0.004, Mu: 1},  // bursty slot 2
	}}
	s, err := NewMVASolver(sw)
	if err != nil {
		t.Fatal(err)
	}
	wantSlots := map[int]int{1: 0, 3: 1, 4: 2}
	for r, want := range wantSlots {
		if got := s.burstyIndex(r); got != want {
			t.Errorf("burstyIndex(%d) = %d, want %d", r, got, want)
		}
	}
	// The map must agree with burstyR, its inverse.
	for j, r := range s.burstyR {
		if s.burstyOf[r] != j {
			t.Errorf("burstyOf[%d] = %d, want slot %d", r, s.burstyOf[r], j)
		}
	}
	for _, poisson := range []int{0, 2} {
		if s.burstyOf[poisson] != -1 {
			t.Errorf("burstyOf[%d] = %d for a Poisson class, want -1", poisson, s.burstyOf[poisson])
		}
	}
	for _, r := range []int{0, 2, -1, 99} {
		r := r
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("burstyIndex(%d) did not panic", r)
				}
			}()
			s.burstyIndex(r)
		}()
	}
}

// TestMVASolverReuse checks the buffer-recycling path: re-pointing one
// solver across sizes and class mixes must reproduce fresh solves.
func TestMVASolverReuse(t *testing.T) {
	s := &MVASolver{}
	cases := []Switch{
		{N1: 8, N2: 8, Classes: []Class{{A: 1, Alpha: 0.1, Mu: 1}}},
		{N1: 3, N2: 5, Classes: []Class{
			{A: 1, Alpha: 0.05, Beta: 0.01, Mu: 1},
			{A: 2, Alpha: 0.01, Mu: 1},
		}},
		{N1: 10, N2: 10, Classes: []Class{
			{A: 2, Alpha: 0.02, Beta: 0.002, Mu: 1},
			{A: 1, Alpha: 0.1, Beta: -0.01, Mu: 1},
		}},
	}
	for i, sw := range cases {
		if err := s.Reuse(sw); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		fresh, err := SolveMVA(sw)
		if err != nil {
			t.Fatal(err)
		}
		got := s.Result()
		for r := range sw.Classes {
			if !floats.Close(got.Blocking[r], fresh.Blocking[r], 1e-14) {
				t.Errorf("case %d Blocking[%d]: reuse %v fresh %v", i, r, got.Blocking[r], fresh.Blocking[r])
			}
		}
	}
}

// TestSolverReuse is the Algorithm 1 twin of the recycling check.
func TestSolverReuse(t *testing.T) {
	s := &Solver{}
	cases := []Switch{
		{N1: 12, N2: 12, Classes: []Class{{A: 1, Alpha: 0.1, Beta: 0.02, Mu: 1}}},
		{N1: 4, N2: 9, Classes: []Class{
			{A: 1, Alpha: 0.05, Mu: 1},
			{A: 2, Alpha: 0.01, Beta: 0.001, Mu: 1},
		}},
		{N1: 6, N2: 6, Classes: []Class{{A: 1, Alpha: 0.2, Mu: 2}}},
	}
	for i, sw := range cases {
		if err := s.Reuse(sw); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		fresh, err := Solve(sw)
		if err != nil {
			t.Fatal(err)
		}
		got := s.Result()
		for r := range sw.Classes {
			if !floats.Close(got.Blocking[r], fresh.Blocking[r], 1e-14) {
				t.Errorf("case %d Blocking[%d]: reuse %v fresh %v", i, r, got.Blocking[r], fresh.Blocking[r])
			}
		}
	}
}
