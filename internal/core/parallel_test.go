package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"xbar/internal/parallel"
	"xbar/internal/scale"
)

// The Algorithm 1 wavefront fill must be BIT-identical to the
// sequential fill, not merely within tolerance, because every cell is
// computed by the identical instruction sequence reading only
// finalized cells; only the schedule changes. These tests pin that
// guarantee across worker counts, tile sizes, traffic mixes
// (Poisson-only, bursty-only, mixed multirate) and rectangular
// N1 != N2 switches, below the cutoff through the wavefront entry
// point and above it through the public Solve. Algorithm 2 always
// fills sequentially, but its recursions obey the same order, which
// TestParallelFillBitIdenticalMVA pins through its block fill.

var parallelFillCases = []struct {
	name    string
	classes []Class
}{
	{"poisson", []Class{
		{Name: "p1", A: 1, Alpha: 0.04, Mu: 1},
		{Name: "p2", A: 2, Alpha: 0.015, Mu: 0.5},
	}},
	{"bursty", []Class{
		{Name: "b1", A: 1, Alpha: 0.03, Beta: 0.012, Mu: 1},
		{Name: "b2", A: 2, Alpha: 0.01, Beta: 0.004, Mu: 0.8},
	}},
	{"mixed-multirate", []Class{
		{Name: "p1", A: 1, Alpha: 0.05, Mu: 1},
		{Name: "b2", A: 2, Alpha: 0.012, Beta: 0.006, Mu: 1},
		{Name: "b3", A: 3, Alpha: 0.004, Beta: 0.001, Mu: 0.7},
		{Name: "p2", A: 2, Alpha: 0.008, Mu: 1.3},
	}},
}

var parallelFillShapes = []struct{ n1, n2 int }{
	{40, 40},   // square, crosses tile boundaries at every tested tile
	{24, 41},   // rectangular, N1 < N2
	{41, 24},   // rectangular, N1 > N2
	{3, 37},    // degenerate: thinner than most tiles
	{129, 129}, // many tiles per diagonal at tile 8
}

// maxprocs raises GOMAXPROCS to at least n for the duration of the
// test. parallel.Wavefront clamps its pool to GOMAXPROCS, so without
// this the multi-worker schedules would silently degenerate to the
// sequential path on single-CPU hosts and prove nothing.
func maxprocs(t *testing.T, n int) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// loadSolver runs the load step of Reuse on a new solver: the Q
// lattice is sized and the W lattices are taken from the fill scratch,
// for the caller to fill, compare and release.
func loadSolver(t *testing.T, sw Switch) *Solver {
	t.Helper()
	s := &Solver{}
	if err := s.load(sw); err != nil {
		t.Fatal(err)
	}
	return s
}

// loadMVASolver is loadSolver for Algorithm 2: F sized, D grids taken.
func loadMVASolver(t *testing.T, sw Switch) *MVASolver {
	t.Helper()
	s := &MVASolver{}
	if err := s.load(sw); err != nil {
		t.Fatal(err)
	}
	return s
}

// sequentialSolver fills sw's Algorithm 1 lattice with one
// whole-lattice fillBlock, the sequential schedule, at any size,
// keeping its W lattices for the caller to compare and release.
func sequentialSolver(t *testing.T, sw Switch) *Solver {
	t.Helper()
	s := loadSolver(t, sw)
	s.fillBlock(0, sw.N1+1, 0, sw.N2+1)
	return s
}

// refillWavefront poisons s's Q and W lattices and refills them as a
// wavefront of tile x tile blocks on the given number of workers, so
// a cell read before it is written shows up as a wrong value.
func refillWavefront(s *Solver, workers, tile int) {
	poison := scale.FromFloat64(math.MaxFloat64)
	for i := range s.q {
		s.q[i] = poison
	}
	for j := range s.bursty {
		for i := range s.bursty[j].w {
			s.bursty[j].w[i].Init(poison)
		}
	}
	parallel.Wavefront(workers, s.sw.N1+1, s.sw.N2+1, tile, s.fillBlock)
}

// assertSameFill fails unless got's Q and W lattices equal want's.
func assertSameFill(t *testing.T, got, want *Solver) {
	t.Helper()
	if !slices.Equal(got.q, want.q) {
		t.Fatalf("Q lattice differs from sequential fill")
	}
	for j := range got.bursty {
		if !slices.Equal(got.bursty[j].w, want.bursty[j].w) {
			t.Fatalf("W lattice of bursty class %d differs from sequential fill", j)
		}
	}
}

func TestParallelFillBitIdenticalAlg1(t *testing.T) {
	maxprocs(t, 8)
	for _, tc := range parallelFillCases {
		for _, sh := range parallelFillShapes {
			sw := Switch{N1: sh.n1, N2: sh.n2, Classes: tc.classes}
			ref := sequentialSolver(t, sw)
			refRes := ref.Result()
			full := max(sh.n1, sh.n2) + 1
			for _, w := range []int{1, 2, 4, 8} {
				for _, tile := range []int{1, 8, 64, full} {
					t.Run(fmt.Sprintf("%s/%dx%d/w%d_t%d", tc.name, sh.n1, sh.n2, w, tile), func(t *testing.T) {
						par := loadSolver(t, sw)
						defer par.release()
						refillWavefront(par, w, tile)
						assertSameFill(t, par, ref)
						if got := par.Result(); !reflect.DeepEqual(got, refRes) {
							t.Fatalf("Result differs from sequential fill:\n got %+v\nwant %+v", got, refRes)
						}
					})
				}
			}
			ref.release()
		}
	}
	// Above the cutoff the public entry points pick the wavefront.
	t.Run("poisson+bursty/520x530/solve", func(t *testing.T) {
		sw := Switch{N1: 520, N2: 530, Classes: []Class{
			{Name: "p", A: 1, Alpha: 0.0012, Mu: 1},
			{Name: "b", A: 1, Alpha: 0.0012, Beta: 0.0006, Mu: 1},
		}}
		if w, _ := fillPlan(sw.N1+1, sw.N2+1); w <= 1 {
			t.Fatalf("fill plan for 520x530 is sequential, want a wavefront")
		}
		ref := sequentialSolver(t, sw)
		defer ref.release()
		par := loadSolver(t, sw)
		defer par.release()
		par.fill()
		assertSameFill(t, par, ref)
		res, err := Solve(sw)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Result(); !reflect.DeepEqual(res, want) {
			t.Fatalf("Solve differs from sequential fill:\n got %+v\nwant %+v", res, want)
		}
	})
}

// TestParallelFillBitIdenticalMVA pins the same dependency order for
// Algorithm 2: refilling the F and D lattices as a tiled wavefront of
// fillBlock calls gives the bits of the whole-lattice fill, across
// the same workers x tiles grid.
func TestParallelFillBitIdenticalMVA(t *testing.T) {
	maxprocs(t, 8)
	for _, tc := range parallelFillCases {
		for _, sh := range parallelFillShapes {
			sw := Switch{N1: sh.n1, N2: sh.n2, Classes: tc.classes}
			ref := loadMVASolver(t, sw)
			ref.fill()
			refRes := ref.Result()
			full := max(sh.n1, sh.n2) + 1
			for _, w := range []int{1, 2, 4, 8} {
				for _, tile := range []int{1, 8, 64, full} {
					t.Run(fmt.Sprintf("%s/%dx%d/w%d_t%d", tc.name, sh.n1, sh.n2, w, tile), func(t *testing.T) {
						par := loadMVASolver(t, sw)
						defer par.release()
						for _, lat := range append([][]float64{par.f1, par.f2}, par.d...) {
							for i := range lat {
								lat[i] = math.NaN()
							}
						}
						parallel.Wavefront(w, sh.n1+1, sh.n2+1, tile, par.fillBlock)
						if !slices.Equal(par.f1, ref.f1) || !slices.Equal(par.f2, ref.f2) {
							t.Fatalf("F lattices differ from sequential fill")
						}
						for j := range par.d {
							if !slices.Equal(par.d[j], ref.d[j]) {
								t.Fatalf("D lattice of bursty class %d differs from sequential fill", j)
							}
						}
						if got := par.Result(); !reflect.DeepEqual(got, refRes) {
							t.Fatalf("Result differs from sequential fill:\n got %+v\nwant %+v", got, refRes)
						}
					})
				}
			}
			ref.release()
		}
	}
}

// TestParallelFillReuse checks that one recycled solver picks the
// schedule per fill: Reuse's load, fill and release across the cutoff
// and back stay bit-identical to a fresh sequential fill at every
// size, the W lattices compared before each release.
func TestParallelFillReuse(t *testing.T) {
	maxprocs(t, 4)
	classes := parallelFillCases[2].classes
	s, err := NewSolver(Switch{N1: 40, N2: 28, Classes: classes})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []struct{ n1, n2 int }{{520, 530}, {28, 40}, {600, 520}, {9, 9}} {
		sw := Switch{N1: sh.n1, N2: sh.n2, Classes: classes}
		if err := s.load(sw); err != nil {
			t.Fatal(err)
		}
		s.fill()
		ref := sequentialSolver(t, sw)
		assertSameFill(t, s, ref)
		s.release()
		ref.release()
		if got, want := s.Result(), ref.Result(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Reuse(%dx%d) Result differs from sequential", sh.n1, sh.n2)
		}
	}
}

// TestAutoHeuristic pins the size rule: sequential up to the N = 512
// lattice, a wavefront on GOMAXPROCS workers above it with ~2 tiles
// per worker on the long diagonals (edge clamped to [16, 256]), and
// sequential at any size on a single CPU.
func TestAutoHeuristic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, sh := range []struct{ rows, cols int }{{2, 2}, {17, 17}, {257, 257}, {513, 513}, {400, 650}} {
		if w, _ := fillPlan(sh.rows, sh.cols); w != 1 {
			t.Errorf("plan at %dx%d chose %d workers, want sequential", sh.rows, sh.cols, w)
		}
	}
	for _, tc := range []struct{ procs, rows, cols, tile int }{
		{2, 514, 514, 128},
		{2, 521, 531, 130},
		{2, 1025, 1025, 256},
		{2, 300, 1025, 75},
		{8, 1025, 1025, 64},
		{8, 300, 1025, 18},
		{32, 520, 600, 16},
	} {
		runtime.GOMAXPROCS(tc.procs)
		if w, tile := fillPlan(tc.rows, tc.cols); w != tc.procs || tile != tc.tile {
			t.Errorf("plan at %dx%d on %d CPUs = (%d, %d), want (%d, %d)",
				tc.rows, tc.cols, tc.procs, w, tile, tc.procs, tc.tile)
		}
	}
	runtime.GOMAXPROCS(1)
	if w, _ := fillPlan(1025, 1025); w != 1 {
		t.Errorf("plan at 1025x1025 on one CPU chose %d workers, want sequential", w)
	}
}
