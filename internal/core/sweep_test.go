package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xbar/internal/floats"
)

// sweepCases are the class mixes the equivalence tests sweep: the
// amortization guard of the ISSUE — Poisson-only, bursty-only, and
// mixed traffic including bandwidths a >= 2.
var sweepCases = []struct {
	name    string
	classes []Class
}{
	{"poisson-only", []Class{
		{Name: "p1", A: 1, Alpha: 0.02, Mu: 1},
	}},
	{"bursty-only", []Class{
		{Name: "peaky", A: 1, Alpha: 0.015, Beta: 0.004, Mu: 1},
	}},
	{"smooth", []Class{
		{Name: "smooth", A: 1, Alpha: 0.02, Beta: -1e-5, Mu: 1},
	}},
	{"mixed-multirate", []Class{
		{Name: "p1", A: 1, Alpha: 0.02, Mu: 1},
		{Name: "peaky2", A: 2, Alpha: 0.003, Beta: 0.001, Mu: 0.5},
		{Name: "p3", A: 3, Alpha: 0.0005, Mu: 1},
	}},
}

func resultsMatch(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if !floats.AlmostEqual(got.LogG, want.LogG, floats.DefaultTol) {
		t.Errorf("%s: LogG = %v, want %v", tag, got.LogG, want.LogG)
	}
	for r := range want.NonBlocking {
		if !floats.AlmostEqual(got.NonBlocking[r], want.NonBlocking[r], floats.DefaultTol) {
			t.Errorf("%s: NonBlocking[%d] = %v, want %v", tag, r, got.NonBlocking[r], want.NonBlocking[r])
		}
		if !floats.AlmostEqual(got.Blocking[r], want.Blocking[r], floats.DefaultTol) {
			t.Errorf("%s: Blocking[%d] = %v, want %v", tag, r, got.Blocking[r], want.Blocking[r])
		}
		if !floats.AlmostEqual(got.Concurrency[r], want.Concurrency[r], floats.DefaultTol) {
			t.Errorf("%s: Concurrency[%d] = %v, want %v", tag, r, got.Concurrency[r], want.Concurrency[r])
		}
	}
}

// TestSweepMatchesFreshSolve is the amortization-never-drifts guard:
// one 64x64 fill must reproduce a fresh Algorithm 1 solve at every
// sub-size n in 1..64 with the same per-route classes.
func TestSweepMatchesFreshSolve(t *testing.T) {
	const maxN = 64
	for _, tc := range sweepCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sweep, err := NewSweepSolver(Switch{N1: maxN, N2: maxN, Classes: tc.classes})
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= maxN; n++ {
				fresh, err := Solve(Switch{N1: n, N2: n, Classes: tc.classes})
				if err != nil {
					t.Fatalf("fresh solve at n=%d: %v", n, err)
				}
				resultsMatch(t, tc.name, sweep.ResultAt(n, n), fresh)
			}
		})
	}
}

// TestMVASweepMatchesFreshSolve is the Algorithm 2 twin of the guard.
func TestMVASweepMatchesFreshSolve(t *testing.T) {
	const maxN = 64
	for _, tc := range sweepCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sweep, err := NewMVASweepSolver(Switch{N1: maxN, N2: maxN, Classes: tc.classes})
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= maxN; n++ {
				fresh, err := SolveMVA(Switch{N1: n, N2: n, Classes: tc.classes})
				if err != nil {
					t.Fatalf("fresh MVA solve at n=%d: %v", n, err)
				}
				resultsMatch(t, tc.name, sweep.ResultAt(n, n), fresh)
			}
		})
	}
}

// TestSweepOffDiagonal checks non-square sub-lattice reads too — the
// revenue differences read (N1-a, N2-a) points that the diagonal
// sweep never touches when N1 != N2.
func TestSweepOffDiagonal(t *testing.T) {
	classes := sweepCases[3].classes
	sweep, err := NewSweepSolver(Switch{N1: 12, N2: 20, Classes: classes})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct{ n1, n2 int }{{1, 1}, {3, 7}, {12, 20}, {5, 19}, {12, 1}} {
		fresh, err := Solve(Switch{N1: p.n1, N2: p.n2, Classes: classes})
		if err != nil {
			t.Fatal(err)
		}
		resultsMatch(t, "off-diagonal", sweep.ResultAt(p.n1, p.n2), fresh)
	}
}

// TestSweepCachesReads pins the memoization contract: repeated reads
// of one point return the identical *Result.
func TestSweepCachesReads(t *testing.T) {
	sweep, err := NewSweepSolver(Switch{N1: 8, N2: 8, Classes: sweepCases[0].classes})
	if err != nil {
		t.Fatal(err)
	}
	a, b := sweep.ResultAt(5, 5), sweep.ResultAt(5, 5)
	if a != b {
		t.Error("second read of (5,5) returned a different Result pointer")
	}
	if sweep.Result() != sweep.ResultAt(8, 8) {
		t.Error("Result() and ResultAt(N1, N2) disagree")
	}
}

// TestSweepShadowCost checks the in-lattice revenue reads against the
// direct definition DeltaW_r = W(N) - W(N - a_r I).
func TestSweepShadowCost(t *testing.T) {
	classes := sweepCases[3].classes
	weights := []float64{1.0, 0.3, 0.01}
	sweep, err := NewSweepSolver(Switch{N1: 16, N2: 16, Classes: classes})
	if err != nil {
		t.Fatal(err)
	}
	wFull := sweep.Result().Revenue(weights)
	for r, c := range classes {
		sub, err := Solve(Switch{N1: 16 - c.A, N2: 16 - c.A, Classes: classes})
		if err != nil {
			t.Fatal(err)
		}
		want := wFull - sub.Revenue(weights)
		if got := sweep.ShadowCost(weights, r); !floats.AlmostEqual(got, want, floats.DefaultTol) {
			t.Errorf("ShadowCost(%d) = %v, want %v", r, got, want)
		}
	}
	// W at a zero-size switch is zero by convention, so for a class as
	// wide as the switch the shadow cost is all of W.
	wide := []Class{{Name: "wide", A: 4, Alpha: 0.01, Mu: 1}}
	sw4, err := NewSweepSolver(Switch{N1: 4, N2: 4, Classes: wide})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{2.5}
	if got, want := sw4.ShadowCost(w, 0), sw4.Result().Revenue(w); !floats.AlmostEqual(got, want, floats.DefaultTol) {
		t.Errorf("full-width ShadowCost = %v, want W = %v", got, want)
	}
}

func TestSweepPanicsOutsideLattice(t *testing.T) {
	sweep, err := NewMVASweepSolver(Switch{N1: 4, N2: 4, Classes: sweepCases[0].classes})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ResultAt(5, 5) on a 4x4 lattice did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "outside solved lattice") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	sweep.ResultAt(5, 5)
}

// TestSweepSolverReuse pins the recycling contract the server's solver
// cache depends on: a zero-value sweep solver is ready for Reuse, and
// Reuse across switch sizes and traffic mixes reproduces fresh
// construction exactly, with the memoized reads reset in between.
func TestSweepSolverReuse(t *testing.T) {
	var s SweepSolver
	for _, tc := range []struct {
		n1, n2 int
		mix    int
	}{{16, 16, 0}, {8, 24, 3}, {24, 8, 1}, {16, 16, 2}} {
		sw := Switch{N1: tc.n1, N2: tc.n2, Classes: sweepCases[tc.mix].classes}
		if err := s.Reuse(sw); err != nil {
			t.Fatalf("Reuse(%dx%d): %v", tc.n1, tc.n2, err)
		}
		fresh, err := NewSweepSolver(sw)
		if err != nil {
			t.Fatal(err)
		}
		tag := sweepCases[tc.mix].name
		resultsMatch(t, tag, s.Result(), fresh.Result())
		resultsMatch(t, tag, s.ResultAt(tc.n1/2+1, tc.n2/2+1), fresh.ResultAt(tc.n1/2+1, tc.n2/2+1))
		if a, b := s.ResultAt(3, 3), s.ResultAt(3, 3); a != b {
			t.Error("memoized read not stable after Reuse")
		}
	}
	if err := s.Reuse(Switch{N1: 0, N2: 4}); err == nil {
		t.Error("Reuse accepted a 0x4 switch")
	}
}

// TestMVASweepSolverReuse is the Algorithm 2 twin.
func TestMVASweepSolverReuse(t *testing.T) {
	var s MVASweepSolver
	for _, tc := range []struct {
		n1, n2 int
		mix    int
	}{{16, 16, 1}, {24, 8, 3}, {8, 8, 0}} {
		sw := Switch{N1: tc.n1, N2: tc.n2, Classes: sweepCases[tc.mix].classes}
		if err := s.Reuse(sw); err != nil {
			t.Fatalf("Reuse(%dx%d): %v", tc.n1, tc.n2, err)
		}
		fresh, err := NewMVASweepSolver(sw)
		if err != nil {
			t.Fatal(err)
		}
		tag := sweepCases[tc.mix].name
		resultsMatch(t, tag, s.Result(), fresh.Result())
		resultsMatch(t, tag, s.ResultAt(tc.n1/2+1, tc.n2/2+1), fresh.ResultAt(tc.n1/2+1, tc.n2/2+1))
	}
}

func TestSweepRejectsInvalid(t *testing.T) {
	if _, err := NewSweepSolver(Switch{N1: 0, N2: 4}); err == nil {
		t.Error("NewSweepSolver accepted a 0x4 switch")
	}
	if _, err := NewMVASweepSolver(Switch{N1: 4, N2: 4}); err == nil {
		t.Error("NewMVASweepSolver accepted a switch with no classes")
	}
}

// TestSweepMemoHoldsReads pins the sparse memo on both sweep layers at
// the largest size the load benchmark fills: after k distinct reads
// (some repeated) of a 192x192 lattice the memo holds exactly k
// Results, and none after Reuse. A Result read before Reuse is never
// written again: it stays byte for byte the same while, and after, the
// solver refills with another switch. Under -race the concurrent
// reader below catches any write Reuse makes to it.
func TestSweepMemoHoldsReads(t *testing.T) {
	const n = 192
	points := [][2]int{{n, n}, {1, 1}, {n, 1}, {1, n}, {96, 150}, {150, 96}, {7, 191}, {191, 7}, {100, 100}}
	refill := Switch{N1: 160, N2: 176, Classes: sweepCases[1].classes}
	for _, alg := range []struct {
		name string
		fill func(Switch) (*sweepCache, func(Switch) error, error)
	}{
		{"alg1", func(sw Switch) (*sweepCache, func(Switch) error, error) {
			s, err := NewSweepSolver(sw)
			if err != nil {
				return nil, nil, err
			}
			return &s.sweepCache, func(sw Switch) error { return s.Reuse(sw) }, nil
		}},
		{"alg2", func(sw Switch) (*sweepCache, func(Switch) error, error) {
			s, err := NewMVASweepSolver(sw)
			if err != nil {
				return nil, nil, err
			}
			return &s.sweepCache, func(sw Switch) error { return s.Reuse(sw) }, nil
		}},
	} {
		t.Run(alg.name, func(t *testing.T) {
			memo, reuse, err := alg.fill(Switch{N1: n, N2: n, Classes: sweepCases[3].classes})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(memo.memo); got != 0 {
				t.Fatalf("fresh fill: memo holds %d Results, want 0", got)
			}
			for k, p := range points {
				first := memo.ResultAt(p[0], p[1])
				if again := memo.ResultAt(p[0], p[1]); again != first {
					t.Errorf("second read of (%d, %d) returned a different Result", p[0], p[1])
				}
				if got := len(memo.memo); got != k+1 {
					t.Fatalf("after %d distinct reads the memo holds %d Results", k+1, got)
				}
			}
			memo.Result()
			memo.WAt([]float64{1, 1, 1}, 100, 100)
			if got := len(memo.memo); got != len(points) {
				t.Errorf("re-reads grew the memo to %d Results, want %d", got, len(points))
			}

			old := memo.ResultAt(96, 150)
			want := fmt.Sprintf("%+v", *old)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := fmt.Sprintf("%+v", *old); got != want {
					t.Errorf("Result read before Reuse changed during the refill:\n got %s\nwant %s", got, want)
				}
			}()
			if err := reuse(refill); err != nil {
				t.Fatal(err)
			}
			if got := len(memo.memo); got != 0 {
				t.Errorf("after Reuse the memo holds %d Results, want 0", got)
			}
			fresh := memo.ResultAt(96, 150)
			wg.Wait()
			if fresh == old {
				t.Error("Reuse served a Result of the previous fill")
			}
			if got := fmt.Sprintf("%+v", *old); got != want {
				t.Errorf("Result read before Reuse changed after the refill:\n got %s\nwant %s", got, want)
			}
		})
	}
}
