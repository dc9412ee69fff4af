package server

import (
	"sync/atomic"
	"testing"

	"xbar/internal/core"
)

// TestTakeSolverBestFit pins the pool's choice: the pooled lattice
// with the fewest cells that still holds the fill, else the largest
// pooled lattice, else a new solver; and the solver handed out leaves
// the pool.
func TestTakeSolverBestFit(t *testing.T) {
	classes := []core.Class{{A: 1, Alpha: 0.02, Beta: 0.005, Mu: 1}}
	var free []*core.SweepSolver
	for _, n := range []int{10, 50, 30} {
		s := &core.SweepSolver{}
		if err := s.Reuse(core.Switch{N1: n, N2: n, Classes: classes}); err != nil {
			t.Fatal(err)
		}
		if got, want := s.Cells(), (n+1)*(n+1); got != want {
			t.Fatalf("Cells() after a %dx%d fill = %d, want %d", n, n, got, want)
		}
		free = append(free, s)
	}
	var recycled atomic.Int64
	for _, tc := range []struct{ n, want int }{
		{20, 30}, // smallest that fits
		{60, 50}, // none fits: the largest
		{5, 10},  // the only one left
	} {
		s := takeSolver(&free, (tc.n+1)*(tc.n+1), &recycled)
		if got := s.Cells(); got != (tc.want+1)*(tc.want+1) {
			t.Errorf("fill of %dx%d took a lattice of %d cells, want the %dx%d one", tc.n, tc.n, got, tc.want, tc.want)
		}
		for _, f := range free {
			if f == s {
				t.Errorf("fill of %dx%d left its solver in the pool", tc.n, tc.n)
			}
		}
	}
	if s := takeSolver(&free, 4, &recycled); s == nil || s.Cells() != 0 {
		t.Errorf("an empty pool handed out %v, want a new solver", s)
	}
	if got := recycled.Load(); got != 3 {
		t.Errorf("recycled = %d, want 3", got)
	}
}
